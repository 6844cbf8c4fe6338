//! The argument conventions of `serve_bench`'s command line: a flag's
//! value is the next argument, and anything the command line gets wrong
//! is an `Err` holding the one line [`refuse`] prints — never a panic.
//! Private to the binary, its one user.

/// The value of `flag`: the next argument.
///
/// # Errors
/// `flag` was the last argument; the message says what it `takes`.
pub fn value(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    takes: &str,
) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} takes {takes}"))
}

/// The value of `flag` as a positive integer.
///
/// # Errors
/// The value is missing, is not a `usize`, or is zero.
pub fn positive(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let takes = "a positive integer";
    let text = value(args, flag, takes)?;
    text.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{flag} takes {takes} (got `{text}`)"))
}

/// A comma-separated list of names, every one of them in `known`.
///
/// # Errors
/// Names the first entry outside `known` (an empty entry included) as an
/// unknown `what`.
pub fn selection(what: &str, list: &str, known: &[&str]) -> Result<Vec<String>, String> {
    let selected: Vec<String> = list.split(',').map(str::to_string).collect();
    match selected.iter().find(|name| !known.contains(&name.as_str())) {
        Some(name) => Err(format!(
            "unknown {what} `{name}` (known: {})",
            known.join(", ")
        )),
        None => Ok(selected),
    }
}

/// Refuses the command line: one `serve_bench: …` line on stderr and exit
/// status 2, before anything is served.
pub fn refuse(message: &str) -> ! {
    eprintln!("serve_bench: {message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args<'a>(list: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        list.iter().map(|s| s.to_string())
    }

    #[test]
    fn a_value_is_the_next_argument_or_an_error_naming_the_flag() {
        let mut rest = args(&["a.json", "--next"]);
        assert_eq!(
            value(&mut rest, "--out", "a file path"),
            Ok("a.json".into())
        );
        assert_eq!(rest.next().as_deref(), Some("--next"));
        assert_eq!(
            value(&mut args(&[]), "--out", "a file path"),
            Err("--out takes a file path".into())
        );
    }

    #[test]
    fn a_positive_integer_is_parsed_and_bounded() {
        assert_eq!(positive(&mut args(&["12"]), "--requests"), Ok(12));
        assert_eq!(
            positive(&mut args(&[]), "--requests"),
            Err("--requests takes a positive integer".into())
        );
        for bad in ["x", "-1", "0", "1.5", "", "99999999999999999999999"] {
            assert_eq!(
                positive(&mut args(&[bad]), "--requests"),
                Err(format!("--requests takes a positive integer (got `{bad}`)"))
            );
        }
    }

    #[test]
    fn a_selection_holds_known_names_only() {
        let known = ["cost", "thermal"];
        assert_eq!(
            selection("policy", "thermal,cost", &known),
            Ok(vec!["thermal".to_string(), "cost".to_string()])
        );
        for (bad, name) in [
            ("lifo", "lifo"),
            ("cost,Cost", "Cost"),
            ("", ""),
            ("cost,", ""),
        ] {
            assert_eq!(
                selection("policy", bad, &known),
                Err(format!("unknown policy `{name}` (known: cost, thermal)"))
            );
        }
    }
}
