//! IR generators: step 1 of the paper's pipeline (Figure 8) — emitting
//! accelerator dispatches as disjoint setup/launch/await clusters
//! (Figure 6), exactly as a frontend would.
//!
//! The generated code is deliberately *unoptimized*: every invocation
//! recomputes its tile addresses and re-materializes every constant, which
//! is what the volatile-inline-assembly C baselines of the paper pin into
//! the binary. All improvement must come from the compiler passes.

use crate::spec::{MatmulLayout, MatmulSpec};
use accfg_ir::{CmpPredicate, FuncBuilder, Module, Type, ValueId};
use accfg_sim::{flags as accel_flags, regmap};
use accfg_targets::AcceleratorDescriptor;

/// The target's names for the canonical tile-descriptor roles, borrowed
/// from its descriptor.
#[derive(Debug, Clone)]
struct Names<'d> {
    a: &'d str,
    b: &'d str,
    c: &'d str,
    m: &'d str,
    n: &'d str,
    k: &'d str,
    stride_a: &'d str,
    stride_b: &'d str,
    stride_c: &'d str,
    d: Option<&'d str>,
    stride_d: Option<&'d str>,
    flags: &'d str,
    /// OpenGeMM-style data-streamer CSRs (absent on RoCC targets).
    streamers: Option<StreamerNames>,
}

#[derive(Debug, Clone)]
struct StreamerNames {
    a_bound: &'static str,
    a_stride: &'static str,
    b_bound: &'static str,
    b_stride: &'static str,
    c_bound: &'static str,
    c_stride: &'static str,
    a_bound2: &'static str,
    a_stride2: &'static str,
    b_bound2: &'static str,
    b_stride2: &'static str,
    c_bound2: &'static str,
    c_stride2: &'static str,
}

impl<'d> Names<'d> {
    fn from_descriptor(desc: &'d AcceleratorDescriptor) -> Self {
        let get = |reg: u16| {
            desc.field_by_reg(reg)
                .unwrap_or_else(|| panic!("descriptor lacks a field for config register {reg}"))
                .name
                .as_str()
        };
        Self {
            a: get(regmap::A_ADDR),
            b: get(regmap::B_ADDR),
            c: get(regmap::C_ADDR),
            m: get(regmap::M),
            n: get(regmap::N),
            k: get(regmap::K),
            stride_a: get(regmap::STRIDE_A),
            stride_b: get(regmap::STRIDE_B),
            stride_c: get(regmap::STRIDE_C),
            d: desc.field_by_reg(regmap::D_ADDR).map(|f| f.name.as_str()),
            stride_d: desc.field_by_reg(regmap::STRIDE_D).map(|f| f.name.as_str()),
            flags: get(regmap::FLAGS),
            streamers: desc.field("streamer_A_bound").map(|_| StreamerNames {
                a_bound: "streamer_A_bound",
                a_stride: "streamer_A_stride",
                b_bound: "streamer_B_bound",
                b_stride: "streamer_B_stride",
                c_bound: "streamer_C_bound",
                c_stride: "streamer_C_stride",
                a_bound2: "streamer_A_bound2",
                a_stride2: "streamer_A_stride2",
                b_bound2: "streamer_B_bound2",
                b_stride2: "streamer_B_stride2",
                c_bound2: "streamer_C_bound2",
                c_stride2: "streamer_C_stride2",
            }),
        }
    }
}

/// Emits one setup/launch/await cluster for a tile at the given addresses.
#[allow(clippy::too_many_arguments)]
fn emit_invocation(
    b: &mut FuncBuilder<'_>,
    names: &Names<'_>,
    accel: &str,
    spec: &MatmulSpec,
    a: ValueId,
    bb: ValueId,
    c: ValueId,
    flags: ValueId,
) {
    // tile shape and strides are re-materialized per invocation, as a
    // C frontend would
    let tile_m = b.const_index(spec.tile_m);
    let tile_n = b.const_index(spec.tile_n);
    let tile_k = b.const_index(spec.tile_k);
    let stride_a = b.const_index(spec.k);
    let stride_b = b.const_index(spec.n);
    let stride_c = b.const_index(4 * spec.n);
    // room for the largest setup (OpenGeMM's 24 fields) in one allocation
    let mut fields: Vec<(&str, ValueId)> = Vec::with_capacity(24);
    fields.extend([
        (names.a, a),
        (names.b, bb),
        (names.c, c),
        (names.m, tile_m),
        (names.n, tile_n),
        (names.k, tile_k),
        (names.stride_a, stride_a),
        (names.stride_b, stride_b),
        (names.stride_c, stride_c),
        (names.flags, flags),
    ]);
    // targets with a bias input get its registers written (disabled = 0)
    if let (Some(dn), Some(sdn)) = (names.d, names.stride_d) {
        let d = b.const_index(0);
        let stride_d = b.const_index(0);
        fields.push((dn, d));
        fields.push((sdn, stride_d));
    }
    // streamer configuration, derived per invocation as the C runtime does
    // (the accfg flow folds it all; the baseline recomputes every launch)
    if let Some(st) = &names.streamers {
        let eight = b.const_index(8);
        let a_bound = b.divui(tile_k, eight);
        let a_stride = b.muli(stride_a, eight);
        let b_bound = b.divui(tile_n, eight);
        let b_stride = b.muli(stride_b, eight);
        let c_bound = b.divui(tile_m, eight);
        let c_stride = b.muli(stride_c, eight);
        fields.push((st.a_bound, a_bound));
        fields.push((st.a_stride, a_stride));
        fields.push((st.b_bound, b_bound));
        fields.push((st.b_stride, b_stride));
        fields.push((st.c_bound, c_bound));
        fields.push((st.c_stride, c_stride));
        // inner (spatial) dimension of each streamer: 8-wide vectors
        let a_bound2 = b.divui(tile_m, eight);
        let elem_row = b.muli(eight, eight);
        let b_bound2 = b.divui(tile_k, eight);
        let four = four_bytes(b);
        let c_stride2 = b.muli(four, eight);
        fields.push((st.a_bound2, a_bound2));
        fields.push((st.a_stride2, eight));
        fields.push((st.b_bound2, b_bound2));
        fields.push((st.b_stride2, elem_row));
        fields.push((st.c_bound2, a_bound2));
        fields.push((st.c_stride2, c_stride2));
    }
    let state = b.setup(accel, &fields);
    let token = b.launch(accel, state);
    b.await_token(accel, token);
}

/// Computes tile base addresses `(a, b, c)` for tile indices `(i, j, kk)`.
fn tile_addresses(
    b: &mut FuncBuilder<'_>,
    spec: &MatmulSpec,
    bases: (ValueId, ValueId, ValueId),
    i: ValueId,
    j: ValueId,
    kk: ValueId,
) -> (ValueId, ValueId, ValueId) {
    let k_c = b.const_index(spec.k);
    let n_c = b.const_index(spec.n);
    let tile_m_c = b.const_index(spec.tile_m);
    let tile_n_c = b.const_index(spec.tile_n);
    let tile_k_c = b.const_index(spec.tile_k);
    let four = b.const_index(4);

    // a_off = (i·tile_m)·k + kk·tile_k
    let a_row = b.muli(i, tile_m_c);
    let a_row_off = b.muli(a_row, k_c);
    let a_col_off = b.muli(kk, tile_k_c);
    let a_off = b.addi(a_row_off, a_col_off);
    let a = b.addi(bases.0, a_off);

    // b_off = (kk·tile_k)·n + j·tile_n
    let b_row = b.muli(kk, tile_k_c);
    let b_row_off = b.muli(b_row, n_c);
    let b_col_off = b.muli(j, tile_n_c);
    let b_off = b.addi(b_row_off, b_col_off);
    let bv = b.addi(bases.1, b_off);

    // c_off = ((i·tile_m)·n + j·tile_n)·4
    let c_row = b.muli(i, tile_m_c);
    let c_row_off = b.muli(c_row, n_c);
    let c_col_off = b.muli(j, tile_n_c);
    let c_elems = b.addi(c_row_off, c_col_off);
    let c_off = b.muli(c_elems, four);
    let c = b.addi(bases.2, c_off);

    (a, bv, c)
}

fn four_bytes(b: &mut FuncBuilder<'_>) -> ValueId {
    b.const_index(4)
}

/// The base flag word for a spec (ReLU if requested).
fn base_flags(spec: &MatmulSpec) -> i64 {
    if spec.relu {
        accel_flags::RELU
    } else {
        0
    }
}

/// Generates the matmul kernel for `desc` as a function
/// `matmul(A: i64, B: i64, C: i64)`.
///
/// Single-invocation specs produce one straight-line cluster; multi-tile
/// specs produce the conventional nested tiling loops (the natural frontend
/// output, and the shape the paper's Section 6.2 measures). The collapsed
/// single-loop variant is available separately for the loop-structure
/// ablation.
pub fn matmul_ir(desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> Module {
    if spec.invocations() == 1 {
        single_invocation_ir(desc, spec)
    } else {
        tiled_nested_ir(desc, spec)
    }
}

/// One straight-line setup/launch/await cluster covering the whole problem.
pub fn single_invocation_ir(desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> Module {
    assert_eq!(spec.invocations(), 1, "spec must be a single tile");
    let names = Names::from_descriptor(desc);
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64; 3]);
    let flags = b.const_index(base_flags(spec));
    emit_invocation(
        &mut b, &names, &desc.name, spec, args[0], args[1], args[2], flags,
    );
    b.ret(vec![]);
    m
}

/// The collapsed tiling loop: `for t in 0..ti·tj·tk` with index recovery.
pub fn tiled_collapsed_ir(desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> Module {
    let names = Names::from_descriptor(desc);
    let (ti, tj, tk) = spec.tiles();
    let spec = *spec;
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64; 3]);
    let lb = b.const_index(0);
    let ub = b.const_index(ti * tj * tk);
    let one = b.const_index(1);
    let accel = desc.name.as_str();
    b.build_for(lb, ub, one, vec![], |b, t, _| {
        // recover (i, j, kk) from the linear index; grid dims of 1 are
        // resolved at generation time (a C frontend would not divide by 1)
        let (kk, rest) = if tk == 1 {
            (b.const_index(0), t)
        } else {
            let tk_c = b.const_index(tk);
            (b.remui(t, tk_c), b.divui(t, tk_c))
        };
        let (j, i) = if tj == 1 {
            (b.const_index(0), rest)
        } else {
            let tj_c = b.const_index(tj);
            (b.remui(rest, tj_c), b.divui(rest, tj_c))
        };
        let (a, bb, c) = tile_addresses(b, &spec, (args[0], args[1], args[2]), i, j, kk);
        let flags = if spec.accumulates() {
            // accumulate onto C for every reduction step after the first
            let zero = b.const_index(0);
            let first = b.cmpi(CmpPredicate::Eq, kk, zero);
            let base = b.const_index(base_flags(&spec));
            let acc = b.const_index(base_flags(&spec) | accel_flags::ACCUMULATE);
            b.select(first, base, acc)
        } else {
            b.const_index(base_flags(&spec))
        };
        emit_invocation(b, &names, accel, &spec, a, bb, c, flags);
        vec![]
    });
    b.ret(vec![]);
    m
}

/// The conventional nested tiling loops (i, then j, then kk innermost).
///
/// Grid dimensions of 1 do not get a loop (a frontend would not emit a
/// one-trip loop), so e.g. the OpenGeMM 8-by-k-by-8 tiling produces a
/// doubly-nested i/j loop with the full reduction inside each invocation.
pub fn tiled_nested_ir(desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> Module {
    let names = Names::from_descriptor(desc);
    let (ti, tj, tk) = spec.tiles();
    let spec = *spec;
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64; 3]);
    let lb = b.const_index(0);
    let one = b.const_index(1);
    let accel = desc.name.as_str();

    // innermost: one invocation at tile indices (i, j, kk)
    let body = |b: &mut FuncBuilder<'_>, i: ValueId, j: ValueId, kk: ValueId| {
        let (a, bb, c) = tile_addresses(b, &spec, (args[0], args[1], args[2]), i, j, kk);
        let flags = if spec.accumulates() {
            let zero = b.const_index(0);
            let first = b.cmpi(CmpPredicate::Eq, kk, zero);
            let base = b.const_index(base_flags(&spec));
            let acc = b.const_index(base_flags(&spec) | accel_flags::ACCUMULATE);
            b.select(first, base, acc)
        } else {
            b.const_index(base_flags(&spec))
        };
        emit_invocation(b, &names, accel, &spec, a, bb, c, flags);
    };
    let k_level = |b: &mut FuncBuilder<'_>, i: ValueId, j: ValueId| {
        if tk == 1 {
            let kk = b.const_index(0);
            body(b, i, j, kk);
        } else {
            let ub_k = b.const_index(tk);
            b.build_for(lb, ub_k, one, vec![], |b, kk, _| {
                body(b, i, j, kk);
                vec![]
            });
        }
    };
    let j_level = |b: &mut FuncBuilder<'_>, i: ValueId| {
        if tj == 1 {
            let j = b.const_index(0);
            k_level(b, i, j);
        } else {
            let ub_j = b.const_index(tj);
            b.build_for(lb, ub_j, one, vec![], |b, j, _| {
                k_level(b, i, j);
                vec![]
            });
        }
    };
    if ti == 1 {
        let i = b.const_index(0);
        j_level(&mut b, i);
    } else {
        let ub_i = b.const_index(ti);
        b.build_for(lb, ub_i, one, vec![], |b, i, _| {
            j_level(b, i);
            vec![]
        });
    }
    b.ret(vec![]);
    m
}

/// The Gemmini weight-stationary flow (Section 6.1): one
/// `gemmini_loop_ws`-style invocation per 64-wide column strip, with the
/// full `gemmini.h` software sequence emitted per invocation — scratchpad
/// address derivation, hardware-loop bound/padding bit-packing (Listing 1),
/// and the per-mover configuration words.
///
/// In the C baseline all of this is pinned behind volatile inline assembly
/// and re-executed per invocation; the accfg pipeline constant-folds the
/// packing, hoists the invariant fields, and deduplicates repeated writes —
/// the two effects behind Figure 10's uplift.
pub fn gemmini_ws_ir(desc: &AcceleratorDescriptor, spec: &MatmulSpec) -> Module {
    let names = Names::from_descriptor(desc);
    let name = |reg: u16| {
        desc.field_by_reg(reg)
            .expect("gemmini descriptor has auxiliary fields")
            .name
            .as_str()
    };
    let aux = GemminiAuxNames {
        d: name(regmap::D_ADDR),
        stride_d: name(regmap::STRIDE_D),
        spad_a: name(regmap::SPAD_A),
        spad_b: name(regmap::SPAD_B),
        spad_c: name(regmap::SPAD_C),
        spad_d: name(regmap::SPAD_D),
        loop_sizes: name(regmap::LOOP_SIZES),
        loop_pads: name(regmap::LOOP_PADS),
        config_ex: name(regmap::CONFIG_EX),
        config_ld_a: name(regmap::CONFIG_LD_A),
        config_ld_b: name(regmap::CONFIG_LD_B),
        config_ld_d: name(regmap::CONFIG_LD_D),
        config_st: name(regmap::CONFIG_ST),
        mvin_scale: name(regmap::MVIN_SCALE),
    };
    let (ti, tj, tk) = spec.tiles();
    let spec = *spec;
    let accel = desc.name.as_str();
    let mut m = Module::new();
    let (mut b, args) = FuncBuilder::new_func(&mut m, "matmul", vec![Type::I64; 3]);
    if ti * tj * tk == 1 {
        let zero = b.const_index(0);
        let flags = b.const_index(base_flags(&spec));
        emit_gemmini_invocation(
            &mut b, &names, &aux, accel, &spec, args[0], args[1], args[2], flags, zero,
        );
        b.ret(vec![]);
        return m;
    }
    let lb = b.const_index(0);
    let ub = b.const_index(ti * tj * tk);
    let one = b.const_index(1);
    b.build_for(lb, ub, one, vec![], |b, t, _| {
        // reduction-innermost linearization (kk fastest)
        let (kk, rest) = if tk == 1 {
            (b.const_index(0), t)
        } else {
            let tk_c = b.const_index(tk);
            (b.remui(t, tk_c), b.divui(t, tk_c))
        };
        let (j, i) = if tj == 1 {
            (b.const_index(0), rest)
        } else {
            let tj_c = b.const_index(tj);
            (b.remui(rest, tj_c), b.divui(rest, tj_c))
        };
        let (a, bb, c) = tile_addresses(b, &spec, (args[0], args[1], args[2]), i, j, kk);
        let flags = if spec.accumulates() {
            // output-stationary-style flow: accumulate after the first
            // reduction step
            let zero = b.const_index(0);
            let first = b.cmpi(CmpPredicate::Eq, kk, zero);
            let base = b.const_index(base_flags(&spec));
            let acc = b.const_index(base_flags(&spec) | accel_flags::ACCUMULATE);
            b.select(first, base, acc)
        } else {
            b.const_index(base_flags(&spec))
        };
        emit_gemmini_invocation(b, &names, &aux, accel, &spec, a, bb, c, flags, kk);
        vec![]
    });
    b.ret(vec![]);
    m
}

struct GemminiAuxNames<'d> {
    d: &'d str,
    stride_d: &'d str,
    spad_a: &'d str,
    spad_b: &'d str,
    spad_c: &'d str,
    spad_d: &'d str,
    loop_sizes: &'d str,
    loop_pads: &'d str,
    config_ex: &'d str,
    config_ld_a: &'d str,
    config_ld_b: &'d str,
    config_ld_d: &'d str,
    config_st: &'d str,
    mvin_scale: &'d str,
}

/// One full `gemmini.h`-style invocation: derived parameters, packing, and
/// a 24-field setup.
#[allow(clippy::too_many_arguments)]
fn emit_gemmini_invocation(
    b: &mut FuncBuilder<'_>,
    names: &Names<'_>,
    aux: &GemminiAuxNames<'_>,
    accel: &str,
    spec: &MatmulSpec,
    a: ValueId,
    bb: ValueId,
    c: ValueId,
    flags: ValueId,
    _kk: ValueId,
) {
    // plain tile descriptor values
    let tile_i = b.const_index(spec.tile_m);
    let tile_j = b.const_index(spec.tile_n);
    let tile_k = b.const_index(spec.tile_k);
    let stride_a = b.const_index(spec.k);
    let stride_b = b.const_index(spec.n);
    let stride_c = b.const_index(4 * spec.n);
    let stride_d = b.const_index(0);
    let d_addr = b.const_index(0);
    let act = b.const_index(i64::from(spec.relu));

    // scratchpad-local addresses with bank interleaving:
    // ((dram_addr >> 4) & 0x3FFF) | (((dram_addr >> 10) & 7) << 14)
    let four = b.const_index(4);
    let ten = b.const_index(10);
    let fourteen = b.const_index(14);
    let mask = b.const_index(0x3FFF);
    let bank_mask = b.const_index(7);
    let spad = |b: &mut FuncBuilder<'_>, addr: ValueId| {
        let row_sh = b.shrui(addr, four);
        let row = b.andi(row_sh, mask);
        let bank_sh = b.shrui(addr, ten);
        let bank = b.andi(bank_sh, bank_mask);
        let bank_pos = b.shli(bank, fourteen);
        b.ori(row, bank_pos)
    };
    let spad_a = spad(b, a);
    let spad_b = spad(b, bb);
    let spad_c = spad(b, c);
    let spad_d = b.const_index(0);

    // systolic-array padding: pad_x = (16 - x % 16) % 16 (Listing 1 keeps
    // this arithmetic alive in the baseline; accfg folds it away)
    let sixteen = b.const_index(16);
    let pad = |b: &mut FuncBuilder<'_>, v: ValueId| {
        let rem = b.remui(v, sixteen);
        let diff = b.subi(sixteen, rem);
        b.remui(diff, sixteen)
    };
    let pad_i = pad(b, tile_i);
    let pad_j = pad(b, tile_j);
    let pad_k = pad(b, tile_k);

    // packed hardware-loop bounds: x | y<<16 | z<<32
    let s16 = b.const_index(16);
    let s32 = b.const_index(32);
    let pack3 = |b: &mut FuncBuilder<'_>, x: ValueId, y: ValueId, z: ValueId| {
        let hi = b.shli(z, s32);
        let mid = b.shli(y, s16);
        let lo = b.ori(x, mid);
        b.ori(lo, hi)
    };
    let loop_sizes = pack3(b, tile_i, tile_j, tile_k);
    let loop_pads = pack3(b, pad_i, pad_j, pad_k);

    // per-mover configuration words
    let dataflow = b.const_index(1); // weight-stationary
    let three = b.const_index(3);
    let act_sh = b.shli(act, three);
    let config_ex = b.ori(dataflow, act_sh);
    let scale = b.const_index(1);
    let pack_ld = |b: &mut FuncBuilder<'_>, stride: ValueId| {
        let hi = b.shli(stride, s16);
        b.ori(hi, scale)
    };
    let config_ld_a = pack_ld(b, stride_a);
    let config_ld_b = pack_ld(b, stride_b);
    let config_ld_d = pack_ld(b, stride_d);
    let st_hi = b.shli(stride_c, s16);
    let config_st = b.ori(st_hi, act);

    let fields = [
        (names.a, a),
        (names.b, bb),
        (names.c, c),
        (aux.d, d_addr),
        (names.m, tile_i),
        (names.n, tile_j),
        (names.k, tile_k),
        (names.stride_a, stride_a),
        (names.stride_b, stride_b),
        (names.stride_c, stride_c),
        (aux.stride_d, stride_d),
        (names.flags, flags),
        (aux.spad_a, spad_a),
        (aux.spad_b, spad_b),
        (aux.spad_c, spad_c),
        (aux.spad_d, spad_d),
        (aux.loop_sizes, loop_sizes),
        (aux.loop_pads, loop_pads),
        (aux.config_ex, config_ex),
        (aux.config_ld_a, config_ld_a),
        (aux.config_ld_b, config_ld_b),
        (aux.config_ld_d, config_ld_d),
        (aux.config_st, config_st),
        (aux.mvin_scale, scale),
    ];
    let state = b.setup(accel, &fields);
    let token = b.launch(accel, state);
    b.await_token(accel, token);
}

/// A sequence of independent layers (an MLP-style inference graph): each
/// layer is one matmul with its own memory region, dispatched back-to-back
/// in straight-line code — the scenario where block-level overlap hides one
/// layer's configuration behind the previous layer's execution.
///
/// Returns a function `layers()` with the addresses baked in as constants.
pub fn layer_sequence_ir(
    desc: &AcceleratorDescriptor,
    layers: &[(MatmulSpec, MatmulLayout)],
) -> Module {
    let names = Names::from_descriptor(desc);
    let mut m = Module::new();
    let (mut b, _) = FuncBuilder::new_func(&mut m, "layers", vec![]);
    for (spec, layout) in layers {
        assert_eq!(
            spec.invocations(),
            1,
            "layer_sequence_ir expects single-invocation layers"
        );
        let a = b.const_int(layout.a_addr, Type::I64);
        let bb = b.const_int(layout.b_addr, Type::I64);
        let c = b.const_int(layout.c_addr, Type::I64);
        let flags = b.const_index(base_flags(spec));
        emit_invocation(&mut b, &names, &desc.name, spec, a, bb, c, flags);
    }
    b.ret(vec![]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{check_result, fill_inputs};
    use accfg::pipeline::{pipeline, OptLevel};
    use accfg::AccelFilter;
    use accfg_sim::{AccelSim, Machine};
    use accfg_targets::compile;

    /// Full flow: generate → optimize → lower → simulate → check against
    /// the reference matmul.
    fn run_and_check(
        desc: &AcceleratorDescriptor,
        spec: &MatmulSpec,
        level: OptLevel,
        module: Module,
    ) -> accfg_sim::Counters {
        let mut module = module;
        let filter = if desc.supports_overlap() {
            AccelFilter::All
        } else {
            AccelFilter::Only(vec![])
        };
        pipeline(level, filter).run(&mut module).expect("pipeline");
        let layout = MatmulLayout::at(0x1000, spec);
        let prog = compile(
            &module,
            "matmul",
            desc,
            &[layout.a_addr, layout.b_addr, layout.c_addr],
        )
        .expect("lowering");
        let mut machine = Machine::new(
            desc.host.clone(),
            AccelSim::new(desc.accel.clone()),
            layout.end as usize,
        );
        fill_inputs(&mut machine.mem, spec, &layout, 0xC0FFEE).unwrap();
        let counters = machine.run(&prog, 100_000_000).expect("simulation");
        check_result(&machine.mem, spec, &layout).expect("functional result");
        counters
    }

    #[test]
    fn opengemm_all_levels_are_functionally_correct() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(32).unwrap();
        for level in OptLevel::ALL_LEVELS {
            let m = matmul_ir(&desc, &spec);
            run_and_check(&desc, &spec, level, m);
        }
    }

    #[test]
    fn gemmini_all_levels_are_functionally_correct() {
        let desc = AcceleratorDescriptor::gemmini();
        for size in [32, 128] {
            let spec = MatmulSpec::gemmini_paper(size).unwrap();
            for level in [OptLevel::Base, OptLevel::Dedup] {
                let m = matmul_ir(&desc, &spec);
                run_and_check(&desc, &spec, level, m);
            }
        }
    }

    #[test]
    fn accumulating_tiles_compute_correctly() {
        // tile_k < k exercises the ACCUMULATE flag and the select-based
        // flag computation
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::new((32, 32, 32), (8, 8, 8)).unwrap();
        for level in OptLevel::ALL_LEVELS {
            let m = matmul_ir(&desc, &spec);
            run_and_check(&desc, &spec, level, m);
        }
    }

    #[test]
    fn relu_workload_clamps() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::new((16, 16, 16), (8, 8, 16))
            .unwrap()
            .with_relu()
            .unwrap();
        let m = matmul_ir(&desc, &spec);
        run_and_check(&desc, &spec, OptLevel::All, m);
    }

    #[test]
    fn nested_and_collapsed_agree() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::new((16, 16, 16), (8, 8, 8)).unwrap();
        let collapsed = tiled_collapsed_ir(&desc, &spec);
        let nested = tiled_nested_ir(&desc, &spec);
        let c1 = run_and_check(&desc, &spec, OptLevel::Base, collapsed);
        let c2 = run_and_check(&desc, &spec, OptLevel::Base, nested);
        assert_eq!(c1.launches, c2.launches);
    }

    #[test]
    fn optimization_reduces_cycles_monotonically_on_opengemm() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec = MatmulSpec::opengemm_paper(64).unwrap();
        let cycles: Vec<u64> = [OptLevel::Base, OptLevel::Dedup, OptLevel::All]
            .iter()
            .map(|&level| {
                let m = matmul_ir(&desc, &spec);
                run_and_check(&desc, &spec, level, m).cycles
            })
            .collect();
        assert!(
            cycles[1] < cycles[0],
            "dedup {} !< base {}",
            cycles[1],
            cycles[0]
        );
        assert!(
            cycles[2] < cycles[1],
            "all {} !< dedup {}",
            cycles[2],
            cycles[1]
        );
    }

    #[test]
    fn gemmini_ws_flow_is_functionally_correct() {
        let desc = AcceleratorDescriptor::gemmini();
        for size in [32, 128] {
            let spec = MatmulSpec::gemmini_paper(size).unwrap();
            for level in [OptLevel::Base, OptLevel::Dedup] {
                let m = gemmini_ws_ir(&desc, &spec);
                run_and_check(&desc, &spec, level, m);
            }
        }
    }

    #[test]
    fn gemmini_dedup_cuts_host_cycles() {
        let desc = AcceleratorDescriptor::gemmini();
        let spec = MatmulSpec::gemmini_paper(128).unwrap();
        let base = run_and_check(&desc, &spec, OptLevel::Base, gemmini_ws_ir(&desc, &spec));
        let dedup = run_and_check(&desc, &spec, OptLevel::Dedup, gemmini_ws_ir(&desc, &spec));
        assert!(
            dedup.host_cycles < base.host_cycles,
            "{} !< {}",
            dedup.host_cycles,
            base.host_cycles
        );
        assert!(dedup.config_bytes < base.config_bytes);
    }

    #[test]
    fn layer_sequence_runs_and_is_correct() {
        let desc = AcceleratorDescriptor::opengemm();
        let spec1 = MatmulSpec::new((8, 8, 8), (8, 8, 8)).unwrap();
        let spec2 = MatmulSpec::new((8, 8, 8), (8, 8, 8)).unwrap();
        let l1 = MatmulLayout::at(0x1000, &spec1);
        let l2 = MatmulLayout::at(l1.end, &spec2);
        let mut m = layer_sequence_ir(&desc, &[(spec1, l1), (spec2, l2)]);
        pipeline(OptLevel::All, AccelFilter::All)
            .run(&mut m)
            .unwrap();
        let prog = compile(&m, "layers", &desc, &[]).unwrap();
        let mut machine = Machine::new(
            desc.host.clone(),
            AccelSim::new(desc.accel.clone()),
            l2.end as usize,
        );
        fill_inputs(&mut machine.mem, &spec1, &l1, 1).unwrap();
        fill_inputs(&mut machine.mem, &spec2, &l2, 2).unwrap();
        let counters = machine.run(&prog, 1_000_000).unwrap();
        assert_eq!(counters.launches, 2);
        check_result(&machine.mem, &spec1, &l1).unwrap();
        check_result(&machine.mem, &spec2, &l2).unwrap();
    }
}
