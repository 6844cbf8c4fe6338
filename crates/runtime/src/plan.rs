//! Dispatch plans: the launch-level view of a compiled module that the
//! runtime diffs against a worker's resident register state.
//!
//! A [`DispatchPlan`] records, for every launch of a compiled request, the
//! complete configuration register file the accelerator must observe
//! (hardware register index → value) — exactly the launch trace the accfg
//! interpreter defines as a program's observable behaviour, mapped through
//! the target descriptor's field table. Dispatching a plan onto a worker
//! whose accelerator already holds part of that state only writes the
//! difference: the paper's deduplication (Section 5.4), applied *across
//! requests* at serve time.
//!
//! Register files are [`RegMap`]s: the simulator's own representation, a
//! fixed file of [`regmap::COUNT`] slots plus a presence mask, so scoring
//! a candidate worker is a stack copy and a walk over a few machine words.
//! One private walk (`delta_walk`) serves every consumer — the scheduler's
//! scoring and shadow commit, the cold-cost quote, the emitted program —
//! and [`accfg::regstate::diff`] over ordered maps stays its definition:
//! the property test at the bottom of this file holds the walk to it
//! launch by launch.
//!
//! Registers persist, so most of a dispatch does not depend on the worker
//! it lands on. Every launch of a plan holds the same register set —
//! [`DispatchPlan`]'s one constructor refuses any other plan — so once the
//! first launch has run, the worker holds every register a later launch
//! names at the previous launch's value, and what launches 1.. write is
//! the plan's alone. Pricing a dispatch walks its first launch against
//! the worker's file and adds those later writes as a constant.
//!
//! A plan holds what changes, as the store encodes it: launch 0's file,
//! then each later launch as the registers whose value differs from the
//! launch before — on the `cold_shapes` grid 2.2 of a launch's 24 — in
//! one boxed slice of 16-byte entries. A plan costs one [`RegMap`] plus
//! 16 bytes a changed register, not a [`RegMap`] a launch; a launch's
//! file is rebuilt, when a walk needs it, in one scratch file.
//!
//! RoCC-style targets write configuration in register *pairs*; a pair is
//! rewritten whenever either half differs, which is why pair-granular
//! interfaces save fewer writes (Section 6.1) — the delta machinery here
//! reproduces that effect.

use crate::error::ServeError;
use accfg::interp::ExecTrace;
use accfg::FieldMap;
use accfg_sim::{regmap, Program, ProgramBuilder};
use accfg_targets::{AcceleratorDescriptor, ConfigStyle};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

/// Slots in a [`RegMap`]: every configuration register the simulated
/// accelerator has.
const SLOTS: usize = regmap::COUNT;

// the presence mask is a `u32`, and a RoCC pair `(2f, 2f + 1)` must lie
// wholly inside the file or wholly outside it
const _: () = assert!(SLOTS <= 32 && SLOTS.is_multiple_of(2));

/// `0..SLOTS`, so iteration can lend out `&u16` keys the way the ordered
/// map this type replaced did.
static REGS: [u16; SLOTS] = {
    let mut regs = [0u16; SLOTS];
    let mut r = 0;
    while r < SLOTS {
        regs[r] = r as u16;
        r += 1;
    }
    regs
};

/// A concrete configuration register file keyed by hardware register
/// index: what a worker's accelerator holds (resident state, the
/// scheduler's shadow of it) or what one launch must observe.
///
/// Dense — one slot per register of the simulated accelerator
/// ([`RegMap::SLOTS`] = [`regmap::COUNT`]) plus a mask of which slots are
/// *held* — and map-shaped: `insert` / `get` / `len`, ascending iteration
/// over `(&register, &value)`, equality as a mapping. A register that was
/// never written is absent, not zero: a dispatch onto a blank file writes
/// every register its launches name, zeros included. Copying one is 232
/// bytes and no heap.
///
/// Registers past the file do not exist: [`RegMap::get`] answers `None`
/// for them and [`RegMap::insert`] panics, so every door a register index
/// comes in through ([`DispatchPlan::from_trace`],
/// [`decode_module`](crate::persist::decode_module)) checks it against
/// [`RegMap::SLOTS`] first.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct RegMap {
    /// Slot values. A slot whose `held` bit is clear is 0 — so the derived
    /// equality is equality as a mapping, and a RoCC half a launch never
    /// programs reads as the 0 it is driven to.
    values: [i64; SLOTS],
    /// Bit `r` is set when register `r` holds `values[r]`.
    held: u32,
}

impl RegMap {
    /// Registers in the file; valid indices are `0..SLOTS`.
    pub const SLOTS: usize = SLOTS;

    /// A blank file: no register held.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every register.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Number of registers held.
    pub fn len(&self) -> usize {
        self.held.count_ones() as usize
    }

    /// `true` if no register is held.
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// The value `reg` holds; `None` if it was never written or lies past
    /// the file.
    pub fn get(&self, reg: &u16) -> Option<&i64> {
        let slot = usize::from(*reg);
        (slot < SLOTS && self.held >> slot & 1 == 1).then(|| &self.values[slot])
    }

    /// Records that `reg` holds `value`.
    ///
    /// # Panics
    /// Panics if `reg` lies past the file (`reg >= RegMap::SLOTS`).
    pub fn insert(&mut self, reg: u16, value: i64) {
        let slot = usize::from(reg);
        assert!(
            slot < SLOTS,
            "configuration register {reg} is past the {SLOTS}-register file"
        );
        self.values[slot] = value;
        self.held |= 1 << slot;
    }

    /// The held set: bit `r` for register `r`.
    pub(crate) fn mask(&self) -> u32 {
        self.held
    }

    /// The slots whose values differ from `other`'s, as a mask (an unheld
    /// slot reads 0 on both sides).
    fn differs(&self, other: &RegMap) -> u32 {
        let mut differs = 0u32;
        for slot in 0..SLOTS {
            differs |= u32::from(self.values[slot] != other.values[slot]) << slot;
        }
        differs
    }

    /// Holds `launch`'s value in every slot of `mask` (0 where `launch`
    /// holds nothing). Branch-free: a loop over the mask's set bits, whose
    /// trip count changes from launch to launch, measured slower on a
    /// serve than this select over every slot.
    fn settle(&mut self, launch: &RegMap, mask: u32) {
        for slot in 0..SLOTS {
            let set = mask >> slot & 1 == 1;
            self.values[slot] = if set {
                launch.values[slot]
            } else {
                self.values[slot]
            };
        }
        self.held |= mask;
    }

    /// The held registers, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            values: &self.values,
            rest: self.held,
        }
    }
}

/// Ascending iterator over a [`RegMap`]'s held registers.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    values: &'a [i64; SLOTS],
    /// Held registers not yet yielded.
    rest: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a u16, &'a i64);

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest == 0 {
            return None;
        }
        let slot = self.rest.trailing_zeros() as usize;
        self.rest &= self.rest - 1;
        Some((&REGS[slot], &self.values[slot]))
    }
}

impl<'a> IntoIterator for &'a RegMap {
    type Item = (&'a u16, &'a i64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Index<&u16> for RegMap {
    type Output = i64;

    /// # Panics
    /// Panics if `reg` is not held.
    fn index(&self, reg: &u16) -> &i64 {
        self.get(reg)
            .unwrap_or_else(|| panic!("configuration register {reg} is not held"))
    }
}

impl FromIterator<(u16, i64)> for RegMap {
    fn from_iter<I: IntoIterator<Item = (u16, i64)>>(iter: I) -> Self {
        let mut regs = Self::new();
        for (reg, value) in iter {
            regs.insert(reg, value);
        }
        regs
    }
}

impl<const N: usize> From<[(u16, i64); N]> for RegMap {
    fn from(pairs: [(u16, i64); N]) -> Self {
        pairs.into_iter().collect()
    }
}

impl fmt::Debug for RegMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self).finish()
    }
}

/// The full register file one launch must observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    /// Register index → value at launch time.
    pub registers: RegMap,
}

/// One register a later launch of a plan changes: the launch, the
/// register and the value it holds from that launch on. Sixteen bytes —
/// the launch index sits where a `(register, value)` pair pads — so a
/// plan's runs need no separate table of where each launch's run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Change {
    /// The launch: 1 or later.
    pub(crate) launch: u32,
    /// Register index.
    pub(crate) reg: u16,
    /// The value the launch gives the register.
    pub(crate) value: i64,
}

const _: () = assert!(std::mem::size_of::<Change>() == 16);

/// Everything the dispatcher needs to replay a compiled request.
///
/// Held as what changes, the form the store encodes: launch 0's register
/// file, then for each later launch its *run* — the registers whose value
/// differs from the launch before, ascending, with their new values. Every
/// launch holds launch 0's register set, so a later launch's file is
/// launch 0's updated by the runs up to its own, and a plan costs one
/// [`RegMap`] (232 bytes) plus 16 bytes a changed register, not 232
/// bytes a launch. [`DispatchPlan::launches`] rebuilds the files on
/// demand; a dispatch rebuilds them one at a time in one scratch file.
///
/// Built only by [`DispatchPlan::from_trace`] and the store decoder, both
/// through one constructor that refuses a plan whose held set changes and
/// precomputes what the launches after the first write; the fields are
/// read through accessors so no plan outlives a change to its launches.
#[derive(Clone, PartialEq, Eq)]
pub struct DispatchPlan {
    /// The target's configuration style (write granularity and launch
    /// mechanism).
    style: ConfigStyle,
    /// Launch 0's register file; blank in a plan of no launches.
    first: RegMap,
    /// Launches in the plan.
    launches: u32,
    /// The runs of launches 1.., in launch order — a launch that changes
    /// nothing has none — then the value the last launch leaves in each
    /// `settled` slot, ascending and tagged one past the last launch.
    changes: Box<[Change]>,
    /// Register writes a dispatch onto a *blank* register file performs.
    cold_writes: u64,
    /// Writes launches 1.. emit, on every worker.
    later_writes: u64,
    /// The slots launches 1.. write. They leave every one at the last
    /// launch's value — 0 for a RoCC half no launch programs, which is
    /// what a pair rewrite drives it to.
    settled: u32,
}

// `Debug` shows what was built or decoded, as the launch files it stands
// for — not the held form or the constants derived from it: the rendering
// the compile-golden digests pin
impl fmt::Debug for DispatchPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Launches<'a>(&'a DispatchPlan);
        impl fmt::Debug for Launches<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.launches()).finish()
            }
        }
        f.debug_struct("DispatchPlan")
            .field("style", &self.style)
            .field("launches", &Launches(self))
            .field("cold_writes", &self.cold_writes)
            .finish()
    }
}

/// One emitted configuration write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCmd {
    /// A single CSR/MMIO register write.
    Csr {
        /// Register index.
        reg: u16,
        /// Value written.
        value: i64,
    },
    /// A RoCC command carrying one register pair (`2·funct`, `2·funct+1`).
    Rocc {
        /// Function selector.
        funct: u8,
        /// Low-half payload.
        lo: i64,
        /// High-half payload.
        hi: i64,
    },
}

/// The hardware register `desc` maps the setup field called `field` to,
/// checked to be one a dispatch may write.
fn config_register(desc: &AcceleratorDescriptor, field: &str) -> Result<u16, ServeError> {
    let spec = desc.field(field).ok_or_else(|| ServeError::UnknownField {
        accelerator: desc.name.clone(),
        field: field.to_string(),
    })?;
    if usize::from(spec.reg) >= SLOTS {
        return Err(ServeError::RegisterOutOfRange {
            accelerator: desc.name.clone(),
            field: field.to_string(),
            reg: spec.reg,
        });
    }
    if let ConfigStyle::RoccPairs { launch_funct } = desc.style {
        if spec.reg / 2 == u16::from(launch_funct) {
            return Err(ServeError::LaunchPairField {
                accelerator: desc.name.clone(),
                field: field.to_string(),
            });
        }
    }
    Ok(spec.reg)
}

impl DispatchPlan {
    /// Builds a plan from an interpreter trace, mapping the trace's field
    /// names to hardware registers through `desc`'s field table.
    ///
    /// # Errors
    /// Fails if the trace references a field the descriptor does not
    /// declare, if a field maps to a register the simulated accelerator
    /// does not have, if a field maps into a RoCC launch-semantic pair
    /// (those registers belong to the launch command), or if a launch
    /// holds a different register set from the first — whichever a launch
    /// shows first.
    pub fn from_trace(trace: &ExecTrace, desc: &AcceleratorDescriptor) -> Result<Self, ServeError> {
        // A field's register is looked up once per trace, not once per
        // launch that holds it: the records of one trace share their names,
        // and so number their fields alike.
        let mut register_of = FieldMap::<u16>::new();
        let mut numbered_by = None;
        let files = trace.launches.iter().map(|record| {
            let names = record.names();
            if numbered_by.is_none_or(|held| !names.same_table(held)) {
                register_of.clear();
                // room for every field the record holds, so the memo
                // allocates once
                let fields = record
                    .values()
                    .last()
                    .map_or(0, |(field, _)| field.index() + 1);
                register_of.reserve(fields);
                numbered_by = Some(names);
            }
            let mut registers = RegMap::new();
            for (field, value) in record.values() {
                let reg = match register_of.get(field) {
                    Some(&reg) => reg,
                    None => {
                        let reg = config_register(desc, names.name(field))?;
                        register_of.set(field, reg);
                        reg
                    }
                };
                registers.insert(reg, value);
            }
            Ok(registers)
        });
        Self::from_files(desc.style, files, |launch| ServeError::HeldSetChanges {
            accelerator: desc.name.clone(),
            launch,
        })
    }

    /// The plan of the launch files `files` yields, in program order: each
    /// later file is reduced to its run as it arrives, so no file outlives
    /// the next. The runs are sized before they are filled — at most every
    /// register launch 0 holds, a later launch — and the constructor gives
    /// back what they did not use.
    ///
    /// # Errors
    /// The first error `files` yields, or `held_set_changes(i)` for the
    /// first launch `i` whose held set is not launch 0's, whichever comes
    /// first.
    pub(crate) fn from_files<E>(
        style: ConfigStyle,
        files: impl ExactSizeIterator<Item = Result<RegMap, E>>,
        held_set_changes: impl Fn(usize) -> E,
    ) -> Result<Self, E> {
        let launches = u32::try_from(files.len()).expect("a plan's launches number under 2^32");
        let mut files = files.enumerate();
        let Some((_, first)) = files.next() else {
            return Self::new(style, 0, RegMap::new(), Vec::new()).map_err(held_set_changes);
        };
        let first = first?;
        let mut changes = Vec::with_capacity((launches as usize - 1) * first.len());
        let mut before = first.clone();
        for (launch, file) in files {
            let file = file?;
            if file.held != first.held {
                return Err(held_set_changes(launch));
            }
            let tag = launch as u32;
            changes.extend(slots(before.differs(&file)).map(|slot| Change {
                launch: tag,
                reg: slot as u16,
                value: file.values[slot],
            }));
            before = file;
        }
        Self::new(style, launches, first, changes).map_err(held_set_changes)
    }

    /// The one constructor: a plan of `launches` launches under `style`,
    /// launch 0's file `first` and the runs of launches 1.. in `changes`,
    /// with what its later launches write and its blank-file write count.
    ///
    /// Every launch holds the first launch's register set: a run can
    /// change a register's value, not whether it is held, so a change of a
    /// register `first` does not hold is refused. Then every worker enters
    /// launch `i > 0` holding each register it names at launch `i - 1`'s
    /// value (a RoCC half no launch programs is never what makes a pair
    /// stale), so launch `i` writes what it would onto launch `i - 1`'s own
    /// file, on every worker. Generated modules meet this by construction:
    /// the generator writes the same fields in every invocation, a launch
    /// observes the whole file, and the passes remove only writes whose
    /// value is already held.
    ///
    /// The form is canonical, so equal launches make equal plans (and one
    /// encoding): a run lists only registers whose value changes, each
    /// once, ascending, and the runs come in launch order. `changes` gains
    /// the settled slots' final values and is boxed, giving back the room
    /// it did not use.
    ///
    /// The caller vouches for the registers: `from_trace` and the store
    /// decoder refuse a RoCC launch pair before they get here.
    ///
    /// # Errors
    /// The index of the first launch whose run is not canonical: it names
    /// a register `first` does not hold, lists one out of order, twice or
    /// at the value it already holds, or the launch is out of order or
    /// past the plan.
    pub(crate) fn new(
        style: ConfigStyle,
        launches: u32,
        first: RegMap,
        mut changes: Vec<Change>,
    ) -> Result<Self, usize> {
        debug_assert!(
            launches > 0 || first.is_empty(),
            "a plan of no launches holds nothing"
        );
        // launch `before`'s file, moved run by run to the last launch's
        let mut file = first.clone();
        let (mut later_writes, mut settled, mut before) = (0, 0, 0);
        for run in changes.chunk_by(|a, b| a.launch == b.launch) {
            let launch = run[0].launch;
            if launch <= before || launch >= launches {
                return Err(launch as usize);
            }
            before = launch;
            let mut changed = 0u32;
            for change in run {
                let bit = first.held & 1u32.checked_shl(u32::from(change.reg)).unwrap_or(0);
                let slot = usize::from(change.reg);
                if bit == 0 || changed >= bit || file.values[slot] == change.value {
                    return Err(launch as usize);
                }
                changed |= bit;
                file.values[slot] = change.value;
            }
            // the slots a run writes: the held file had every other value
            // already
            let written = widen(changed, style);
            later_writes += write_count(written, style);
            settled |= written;
        }
        changes.reserve_exact(settled.count_ones() as usize);
        changes.extend(slots(settled).map(|slot| Change {
            launch: launches,
            reg: slot as u16,
            value: file.values[slot],
        }));
        let mut plan = Self {
            style,
            first,
            launches,
            changes: changes.into_boxed_slice(),
            cold_writes: 0,
            later_writes,
            settled,
        };
        plan.cold_writes = plan.apply_writes(&mut RegMap::new());
        Ok(plan)
    }

    /// The target's configuration style (write granularity and launch
    /// mechanism).
    pub fn style(&self) -> ConfigStyle {
        self.style
    }

    /// Launches in the plan.
    pub fn launch_count(&self) -> usize {
        self.launches as usize
    }

    /// Every launch's register file, in program order, each rebuilt from
    /// launch 0's and the runs up to its own — for tests, tools and
    /// `Debug`; a dispatch walks the held form.
    pub fn launches(&self) -> impl Iterator<Item = LaunchSpec> + '_ {
        let mut file = self.first.clone();
        let mut runs = self.runs();
        (0..self.launches).map(move |launch| {
            if launch > 0 {
                for change in runs.next().into_iter().flatten() {
                    file.values[usize::from(change.reg)] = change.value;
                }
            }
            LaunchSpec {
                registers: file.clone(),
            }
        })
    }

    /// Register writes a dispatch onto a *blank* register file performs —
    /// the cost the module cache quotes for a cold worker.
    pub fn cold_writes(&self) -> u64 {
        self.cold_writes
    }

    /// `true` if this plan can be replayed on a worker running `desc`:
    /// the plan's configuration style (write granularity and launch
    /// mechanism) must match the worker's. Heterogeneous pools group
    /// differently provisioned platform variants behind one family; this
    /// is the dispatch-level half of the compatibility contract — the
    /// pool-construction half ([`AcceleratorDescriptor::plan_compatible`])
    /// additionally requires identical field tables so compiled register
    /// indices keep their meaning.
    pub fn executable_on(&self, desc: &AcceleratorDescriptor) -> bool {
        self.style == desc.style
    }

    /// The register writes a dispatch would emit against `resident`,
    /// without mutating it — the affinity scheduler's scoring function,
    /// run once per candidate worker per request: one stale mask of the
    /// first launch against `resident`, plus what the later launches
    /// write on every worker.
    pub fn writes_against(&self, resident: &RegMap) -> u64 {
        let written = written_slots(resident, &self.first, self.style);
        write_count(written, self.style) + self.later_writes
    }

    /// Counts the register writes a dispatch emits against `resident`
    /// while advancing `resident` to the plan's final launch state — the
    /// scheduler's shadow-commit step, and the write count the cost model
    /// maps to a warmth bucket.
    ///
    /// Equal, count and file, to walking every launch in turn, at the
    /// cost of one walk: the walk prices the first launch against
    /// `resident`, the later launches add the writes the constructor
    /// counted, and the slots they write take the last launch's values,
    /// which the plan keeps.
    pub fn apply_writes(&self, resident: &mut RegMap) -> u64 {
        let writes = delta_walk(resident, &self.first, self.style, |_| {});
        for change in self.split().1 {
            resident.insert(change.reg, change.value);
        }
        writes + self.later_writes
    }

    /// Launch 0's register file (a blank one in a plan of no launches).
    pub(crate) fn first(&self) -> &RegMap {
        &self.first
    }

    /// Each later launch's run, in launch order: the registers it changes,
    /// ascending, with their new values — empty for a launch that changes
    /// nothing.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[Change]> + '_ {
        let mut rest = self.split().0;
        (1..self.launches).map(move |launch| {
            let len = rest.iter().take_while(|c| c.launch == launch).count();
            let (run, after) = rest.split_at(len);
            rest = after;
            run
        })
    }

    /// `changes` cut in two: the runs of launches 1.., and the values the
    /// last launch leaves in the settled slots.
    fn split(&self) -> (&[Change], &[Change]) {
        self.changes
            .split_at(self.changes.len() - self.settled.count_ones() as usize)
    }

    /// Calls `visit` with every launch's register file, in program order:
    /// launch 0's as held, each later one rebuilt by its run in one
    /// scratch copy of it.
    fn each_launch(&self, mut visit: impl FnMut(&RegMap)) {
        if self.launches == 0 {
            return;
        }
        visit(&self.first);
        if self.launches == 1 {
            return;
        }
        let mut file = self.first.clone();
        for run in self.runs() {
            for change in run {
                file.values[usize::from(change.reg)] = change.value;
            }
            visit(&file);
        }
    }

    /// Builds the executable delta program that moves `resident` to this
    /// plan's launch states (applying the deltas to `resident`), and
    /// returns it together with the number of configuration register
    /// writes it carries.
    ///
    /// This is the single place dispatch programs are assembled: pool
    /// workers replay it per request. The program is sized before it is
    /// filled — from [`DispatchPlan::writes_against`], one stale mask —
    /// so a dispatch allocates once; the program itself walks every
    /// launch, since every write must be emitted: launch 0 against
    /// `resident`, each later launch from one scratch copy of launch 0's
    /// file, updated by its run. Every value passes through the same two
    /// host registers — each write loads them right before its command
    /// reads them — so a program's register file is two registers
    /// however many launches the plan holds.
    ///
    /// Debug and `validate`-feature builds additionally run
    /// [`DispatchPlan::verify_delta_reconstruction`] over the assembled
    /// program and panic on a proof failure — emitting a dispatch that
    /// launches with the wrong register file must never leave this
    /// function.
    pub fn delta_program(&self, resident: &mut RegMap) -> (Program, u64) {
        #[cfg(any(debug_assertions, feature = "validate"))]
        let start = resident.clone();
        // instructions per configuration write and per launch
        let (per_write, per_launch) = match self.style {
            ConfigStyle::Csr => (2, 1),
            ConfigStyle::RoccPairs { .. } => (3, 3),
        };
        let writes = self.writes_against(resident);
        let mut pb = ProgramBuilder::with_capacity(
            writes as usize * per_write + self.launch_count() * per_launch + 2,
        );
        let (r1, r2) = (pb.reg(), pb.reg());
        self.each_launch(|launch| {
            delta_walk(resident, launch, self.style, |cmd| match cmd {
                WriteCmd::Csr { reg, value } => {
                    pb.li(r1, value);
                    pb.csr_write(reg, r1);
                }
                WriteCmd::Rocc { funct, lo, hi } => {
                    pb.li(r1, lo);
                    pb.li(r2, hi);
                    pb.rocc(funct, r1, r2);
                }
            });
            match self.style {
                ConfigStyle::Csr => pb.launch(),
                ConfigStyle::RoccPairs { launch_funct } => {
                    // the launch-semantic command carries its reserved pair
                    // with a zero payload: DispatchPlan::from_trace rejects
                    // any field mapping into this pair, so no resident state
                    // can ever live there
                    pb.li(r1, 0);
                    pb.li(r2, 0);
                    pb.rocc(launch_funct, r1, r2);
                }
            }
        });
        pb.await_idle();
        pb.halt();
        let program = pb.finish();
        #[cfg(any(debug_assertions, feature = "validate"))]
        if let Err(e) = self.verify_delta_reconstruction(&program, &start) {
            panic!("delta-dispatch proof check failed: {e}");
        }
        (program, writes)
    }

    /// Proof check for delta dispatch: symbolically replays `program`'s
    /// instruction stream from the `start` register file and asserts that
    /// at every launch command the reconstructed file carries exactly the
    /// values this plan's corresponding launch file requires — the
    /// runtime-level analogue of the compiler's translation validation,
    /// checking the *emitted instructions* rather than the emitter's own
    /// bookkeeping.
    ///
    /// # Errors
    /// Describes the first divergence: a register holding the wrong value
    /// at a launch, a launch count mismatch, or an instruction a delta
    /// program must never contain.
    pub fn verify_delta_reconstruction(
        &self,
        program: &Program,
        start: &RegMap,
    ) -> Result<(), String> {
        use accfg_sim::Inst;
        let launch_funct = match self.style {
            ConfigStyle::RoccPairs { launch_funct } => Some(launch_funct),
            ConfigStyle::Csr => None,
        };
        let mut env: BTreeMap<u16, i64> = BTreeMap::new();
        let mut regs = start.clone();
        let write = |regs: &mut RegMap, reg: u16, value: i64| {
            if usize::from(reg) >= SLOTS {
                return Err(format!(
                    "write to register {reg}, past the {SLOTS}-register file"
                ));
            }
            regs.insert(reg, value);
            Ok(())
        };
        let mut launches = self.launches();
        let mut next_launch = 0usize;
        let mut check_launch = |regs: &RegMap, next_launch: &mut usize| -> Result<(), String> {
            let Some(launch) = launches.next() else {
                return Err(format!(
                    "program issues launch #{} but the plan has only {}",
                    *next_launch,
                    self.launch_count()
                ));
            };
            for (&reg, &expected) in &launch.registers {
                match regs.get(&reg) {
                    Some(&got) if got == expected => {}
                    got => {
                        return Err(format!(
                            "launch #{}: register {reg} should hold {expected}, \
                             reconstruction has {}",
                            *next_launch,
                            got.map_or("<unwritten>".to_string(), |v| v.to_string()),
                        ))
                    }
                }
            }
            *next_launch += 1;
            Ok(())
        };
        for inst in program.insts() {
            match *inst {
                Inst::Li { rd, imm } => {
                    env.insert(rd.0, imm);
                }
                Inst::CsrWrite { csr, rs } => {
                    let value = *env
                        .get(&rs.0)
                        .ok_or_else(|| format!("csr_write {csr} reads unset host register {rs}"))?;
                    write(&mut regs, csr, value)?;
                }
                Inst::RoccCmd { funct, rs1, rs2 } => {
                    if launch_funct == Some(funct) {
                        check_launch(&regs, &mut next_launch)?;
                        continue;
                    }
                    let read = |r: accfg_sim::Reg| {
                        env.get(&r.0)
                            .copied()
                            .ok_or_else(|| format!("rocc {funct} reads unset host register {r}"))
                    };
                    let base = u16::from(funct) * 2;
                    write(&mut regs, base, read(rs1)?)?;
                    write(&mut regs, base + 1, read(rs2)?)?;
                }
                Inst::Launch => check_launch(&regs, &mut next_launch)?,
                Inst::AwaitIdle | Inst::Halt => {}
                ref other => {
                    return Err(format!(
                        "delta programs never contain {other:?}; emitter is broken"
                    ))
                }
            }
        }
        if next_launch != self.launch_count() {
            return Err(format!(
                "program issues {next_launch} launches, plan requires {}",
                self.launch_count()
            ));
        }
        Ok(())
    }
}

/// The slots of `mask`, ascending.
fn slots(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let slot = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            slot
        })
    })
}

/// The one delta walk: moves `resident` to `launch`'s register file under
/// `style`, hands every write to `emit` in program order and returns how
/// many there were.
///
/// A register is *stale* when the launch programs it and `resident` — as
/// the launch found it, before any of this launch's writes — does not
/// already hold the launch's value there; a register `resident` holds and
/// the launch never names is left alone (configuration registers persist,
/// they are never unset). That is [`accfg::regstate::diff`] over these two
/// files, computed as a mask. CSR targets write each stale register,
/// ascending. RoCC targets write pairs `(2f, 2f + 1)`, ascending by `f`: a
/// pair with a stale half is rewritten whole, a half the launch never
/// programs is driven to 0 (the lowering's zero-register fallback — never
/// to the resident value, so a warm dispatch writes a subset of a cold
/// one's pairs), and both halves are held afterwards.
fn delta_walk(
    resident: &mut RegMap,
    launch: &RegMap,
    style: ConfigStyle,
    mut emit: impl FnMut(WriteCmd),
) -> u64 {
    let written = written_slots(resident, launch, style);
    match style {
        ConfigStyle::Csr => {
            let mut rest = written;
            while rest != 0 {
                let slot = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                emit(WriteCmd::Csr {
                    reg: slot as u16,
                    value: launch.values[slot],
                });
            }
        }
        ConfigStyle::RoccPairs { .. } => {
            // bit `2f` marks pair `f`
            let mut rest = written & 0x5555_5555;
            while rest != 0 {
                let slot = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                // an unprogrammed half reads 0 here: `RegMap`'s invariant
                emit(WriteCmd::Rocc {
                    funct: (slot / 2) as u8,
                    lo: launch.values[slot],
                    hi: launch.values[slot + 1],
                });
            }
        }
    }
    resident.settle(launch, written);
    write_count(written, style)
}

/// The slots [`delta_walk`] writes moving `resident` to `launch`'s file:
/// the stale registers under CSR, both halves of every pair with a stale
/// half under RoCC.
fn written_slots(resident: &RegMap, launch: &RegMap, style: ConfigStyle) -> u32 {
    widen(
        launch.held & (resident.differs(launch) | !resident.held),
        style,
    )
}

/// The slots writing the `stale` registers sets: those registers under
/// CSR, both halves of every pair with a stale half under RoCC.
fn widen(stale: u32, style: ConfigStyle) -> u32 {
    match style {
        ConfigStyle::Csr => stale,
        ConfigStyle::RoccPairs { .. } => {
            let pairs = (stale | stale >> 1) & 0x5555_5555;
            pairs | pairs << 1
        }
    }
}

/// The writes that set the slots of `written`: one per register under
/// CSR, one per pair under RoCC.
fn write_count(written: u32, style: ConfigStyle) -> u64 {
    match style {
        ConfigStyle::Csr => u64::from(written.count_ones()),
        ConfigStyle::RoccPairs { .. } => u64::from(written.count_ones() / 2),
    }
}

/// The writes that move `resident` to `launch`'s register file, applying
/// them to `resident`: the dispatcher's delta walk collected into a list,
/// for callers that want to look at the writes themselves (the serve path
/// never materialises them — it counts them, or assembles them straight
/// into a program).
///
/// CSR targets write single registers, ascending; RoCC targets write whole
/// pairs, so a pair with one stale half rewrites both (a half the launch
/// file never programs is driven to 0, the lowering's zero-register
/// fallback, and is held afterwards).
pub fn delta_writes(
    resident: &mut RegMap,
    launch: &LaunchSpec,
    style: ConfigStyle,
) -> Vec<WriteCmd> {
    let mut cmds = Vec::new();
    delta_walk(resident, &launch.registers, style, |cmd| cmds.push(cmd));
    cmds
}

#[cfg(test)]
mod tests {
    use super::*;
    use accfg::regstate;
    use proptest::prelude::*;

    fn launch(regs: &[(u16, i64)]) -> LaunchSpec {
        LaunchSpec {
            registers: regs.iter().copied().collect(),
        }
    }

    /// The plan of `launches`' files, through the path `from_trace` takes.
    fn plan_of(style: ConfigStyle, launches: Vec<LaunchSpec>) -> Result<DispatchPlan, usize> {
        DispatchPlan::from_files(
            style,
            launches.into_iter().map(|launch| Ok(launch.registers)),
            |launch| launch,
        )
    }

    #[test]
    fn csr_delta_writes_only_changes() {
        let mut resident = RegMap::from([(0, 5), (1, 7)]);
        let cmds = delta_writes(
            &mut resident,
            &launch(&[(0, 5), (1, 8), (2, 9)]),
            ConfigStyle::Csr,
        );
        assert_eq!(
            cmds,
            vec![
                WriteCmd::Csr { reg: 1, value: 8 },
                WriteCmd::Csr { reg: 2, value: 9 }
            ]
        );
        assert_eq!(resident, RegMap::from([(0, 5), (1, 8), (2, 9)]));
    }

    #[test]
    fn rocc_delta_writes_whole_pairs() {
        let style = ConfigStyle::RoccPairs { launch_funct: 13 };
        let mut resident = RegMap::from([(0, 1), (1, 2), (2, 3), (3, 4)]);
        // only register 1 changes: its pair (0, 1) is rewritten, pair (2, 3)
        // is untouched
        let cmds = delta_writes(
            &mut resident,
            &launch(&[(0, 1), (1, 9), (2, 3), (3, 4)]),
            style,
        );
        assert_eq!(
            cmds,
            vec![WriteCmd::Rocc {
                funct: 0,
                lo: 1,
                hi: 9
            }]
        );
        assert_eq!(resident[&1], 9);
    }

    #[test]
    fn rocc_unprogrammed_half_defaults_to_zero() {
        let style = ConfigStyle::RoccPairs { launch_funct: 13 };
        let mut resident = RegMap::new();
        let cmds = delta_writes(&mut resident, &launch(&[(4, 7)]), style);
        assert_eq!(
            cmds,
            vec![WriteCmd::Rocc {
                funct: 2,
                lo: 7,
                hi: 0
            }]
        );
        assert_eq!(resident[&5], 0);
    }

    #[test]
    fn identical_launch_needs_no_writes() {
        for style in [
            ConfigStyle::Csr,
            ConfigStyle::RoccPairs { launch_funct: 13 },
        ] {
            let l = launch(&[(0, 1), (1, 2), (6, 3)]);
            let mut resident = RegMap::new();
            let first = delta_writes(&mut resident, &l, style);
            assert!(!first.is_empty());
            assert!(delta_writes(&mut resident, &l, style).is_empty());
        }
    }

    #[test]
    fn plans_execute_only_on_matching_config_styles() {
        let csr_plan = plan_of(ConfigStyle::Csr, vec![launch(&[(0, 1)])]).unwrap();
        let rocc_plan = plan_of(
            ConfigStyle::RoccPairs { launch_funct: 13 },
            vec![launch(&[(0, 1)])],
        )
        .unwrap();
        let gemmini = AcceleratorDescriptor::gemmini();
        let turbo = AcceleratorDescriptor::gemmini_turbo();
        let opengemm = AcceleratorDescriptor::opengemm();
        let lite = AcceleratorDescriptor::opengemm_lite();
        // provisioning variants share the interface; families don't mix
        assert!(rocc_plan.executable_on(&gemmini));
        assert!(rocc_plan.executable_on(&turbo));
        assert!(!rocc_plan.executable_on(&opengemm));
        assert!(csr_plan.executable_on(&opengemm));
        assert!(csr_plan.executable_on(&lite));
        assert!(!csr_plan.executable_on(&gemmini));
    }

    #[test]
    fn cold_writes_and_scoring_agree() {
        let plan = plan_of(
            ConfigStyle::Csr,
            vec![launch(&[(0, 1), (1, 2)]), launch(&[(0, 3), (1, 2)])],
        )
        .unwrap();
        // cold: 2 writes for the first launch + 1 for the second
        assert_eq!(plan.writes_against(&RegMap::new()), 3);
        // a resident file matching launch 0 exactly skips its writes
        let resident = RegMap::from([(0, 1), (1, 2)]);
        assert_eq!(plan.writes_against(&resident), 1);
        // the plan's own final state still pays launch 0's delta (register
        // 0 cycles 3 → 1) plus launch 1's delta (1 → 3)
        let warm = RegMap::from([(0, 3), (1, 2)]);
        assert_eq!(plan.writes_against(&warm), 2);
    }

    #[test]
    fn delta_program_write_count_matches_scoring() {
        let plan = plan_of(
            ConfigStyle::Csr,
            vec![launch(&[(0, 1), (1, 2)]), launch(&[(0, 3), (1, 2)])],
        )
        .unwrap();
        let mut resident = RegMap::new();
        let quoted = plan.writes_against(&resident);
        let (program, cold) = plan.delta_program(&mut resident);
        assert_eq!(cold, quoted);
        assert!(!program.is_empty());
        // a warm repeat still pays the intra-plan register cycling, but
        // never more than cold, and the quote agrees with the build
        let quoted_warm = plan.writes_against(&resident);
        let (_, warm) = plan.delta_program(&mut resident);
        assert_eq!(warm, quoted_warm);
        assert!(warm <= cold);
    }

    #[test]
    fn delta_reconstruction_proof_accepts_emitted_programs() {
        let plans = [
            plan_of(
                ConfigStyle::Csr,
                vec![launch(&[(0, 1), (1, 2)]), launch(&[(0, 3), (1, 2)])],
            ),
            // pair 2's high half is never programmed: a rewrite drives it to 0
            plan_of(
                ConfigStyle::RoccPairs { launch_funct: 13 },
                vec![
                    launch(&[(0, 1), (3, 2), (4, 0)]),
                    launch(&[(0, 1), (3, 9), (4, 5)]),
                ],
            ),
        ]
        .map(Result::unwrap);
        for plan in &plans {
            // cold and warm assemblies both reconstruct exactly
            let mut resident = RegMap::new();
            let start = resident.clone();
            let (program, _) = plan.delta_program(&mut resident);
            plan.verify_delta_reconstruction(&program, &start).unwrap();
            let warm_start = resident.clone();
            let (warm_program, _) = plan.delta_program(&mut resident);
            plan.verify_delta_reconstruction(&warm_program, &warm_start)
                .unwrap();
            // a warm program replayed from a blank file must fail: the
            // elided writes are exactly what the blank file is missing
            if plan.writes_against(&RegMap::new()) > 0 {
                assert!(plan
                    .verify_delta_reconstruction(&warm_program, &RegMap::new())
                    .is_err());
            }
        }
    }

    #[test]
    fn a_plan_of_more_launches_than_half_the_register_file_dispatches_on_two_registers() {
        // every launch rewrites registers 0 and 1 (pair 0): a program that
        // took fresh registers a write would need more than a `u16` names
        let launches = 32_769;
        for style in [
            ConfigStyle::Csr,
            ConfigStyle::RoccPairs { launch_funct: 13 },
        ] {
            let plan = plan_of(
                style,
                (0..launches)
                    .map(|i| launch(&[(0, i), (1, -i), (4, 7)]))
                    .collect(),
            )
            .unwrap();
            assert_eq!(plan.launch_count(), launches as usize);
            let mut resident = RegMap::new();
            let start = resident.clone();
            let (program, writes) = plan.delta_program(&mut resident);
            assert!(
                program.reg_count() <= 2,
                "{} registers",
                program.reg_count()
            );
            assert!(writes > launches as u64, "{style:?}: {writes} writes");
            plan.verify_delta_reconstruction(&program, &start).unwrap();
        }
    }

    #[test]
    fn delta_reconstruction_proof_catches_a_dropped_write() {
        let plan = plan_of(ConfigStyle::Csr, vec![launch(&[(0, 1), (1, 2)])]).unwrap();
        // hand-assembled dispatch that forgets register 1
        let mut pb = ProgramBuilder::new();
        let r = pb.reg();
        pb.li(r, 1);
        pb.csr_write(0, r);
        pb.launch();
        pb.await_idle();
        pb.halt();
        let err = plan
            .verify_delta_reconstruction(&pb.finish(), &RegMap::new())
            .unwrap_err();
        assert!(err.contains("register 1"), "{err}");
        assert!(err.contains("should hold 2"), "{err}");

        // and one that forgets the launch entirely
        let mut pb = ProgramBuilder::new();
        let r = pb.reg();
        pb.li(r, 1);
        pb.csr_write(0, r);
        pb.halt();
        let err = plan
            .verify_delta_reconstruction(&pb.finish(), &RegMap::new())
            .unwrap_err();
        assert!(err.contains("launches"), "{err}");
    }

    #[test]
    fn warm_dispatch_never_writes_more_than_cold() {
        // the guarantee behind Policy::ConfigAffinity vs. the cold FIFO
        // baseline, exercised over both styles and awkward resident files
        let plans = [
            plan_of(
                ConfigStyle::Csr,
                vec![
                    launch(&[(0, 1), (1, 2), (4, 0)]),
                    launch(&[(0, 3), (1, 2), (4, 5)]),
                    launch(&[(0, 1), (1, 2), (4, 0)]),
                ],
            ),
            plan_of(
                ConfigStyle::RoccPairs { launch_funct: 13 },
                vec![
                    launch(&[(0, 1), (3, 2), (4, 0)]),
                    launch(&[(0, 1), (3, 9), (4, 5)]),
                ],
            ),
        ]
        .map(Result::unwrap);
        let residents = [
            RegMap::new(),
            RegMap::from([(0, 1), (1, 2)]),
            RegMap::from([(0, 99), (1, 98), (3, 97), (4, 96), (5, 95)]),
            RegMap::from([(2, 7)]),
        ];
        for plan in &plans {
            let cold = plan.writes_against(&RegMap::new());
            for resident in &residents {
                assert!(
                    plan.writes_against(resident) <= cold,
                    "warm {} > cold {cold} for {resident:?}",
                    plan.writes_against(resident)
                );
            }
        }
    }

    /// An ordered-map register file, as the runtime held them before
    /// [`RegMap`] went dense.
    type OrderedFile = BTreeMap<u16, i64>;

    /// The definition [`delta_walk`] is held to: the ordered-map
    /// formulation over [`regstate::diff`] that the runtime dispatched
    /// through before the dense file replaced it.
    fn reference_delta_writes(
        resident: &mut OrderedFile,
        launch: &OrderedFile,
        style: ConfigStyle,
    ) -> Vec<WriteCmd> {
        match style {
            ConfigStyle::Csr => regstate::diff(resident, launch)
                .into_iter()
                .map(|(reg, value)| {
                    resident.insert(reg, value);
                    WriteCmd::Csr { reg, value }
                })
                .collect(),
            ConfigStyle::RoccPairs { .. } => {
                let mut functs: Vec<u16> = regstate::diff(resident, launch)
                    .into_iter()
                    .map(|(reg, _)| reg / 2)
                    .collect();
                functs.dedup(); // diff is reg-sorted, so pair ids arrive grouped
                functs
                    .into_iter()
                    .map(|funct| {
                        let half = |reg: u16| launch.get(&reg).copied().unwrap_or(0);
                        let lo = half(funct * 2);
                        let hi = half(funct * 2 + 1);
                        resident.insert(funct * 2, lo);
                        resident.insert(funct * 2 + 1, hi);
                        WriteCmd::Rocc {
                            funct: funct as u8,
                            lo,
                            hi,
                        }
                    })
                    .collect()
            }
        }
    }

    fn as_pairs(regs: &RegMap) -> Vec<(u16, i64)> {
        regs.iter().map(|(&reg, &value)| (reg, value)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Launch by launch, from any resident file: the same writes in
        /// the same order, the same count from the counting walk, and the
        /// same file afterwards (held set included) as the ordered-map
        /// definition — and, over the same launches held to the first's
        /// register set, the plan-level consumers agree with the sum.
        #[test]
        fn the_dense_walk_equals_its_definition(
            resident in prop::collection::vec((0u16..SLOTS as u16, -2i64..3), 0..SLOTS + 8),
            launches in prop::collection::vec(
                prop::collection::vec((0u16..SLOTS as u16, -2i64..3), 0..SLOTS + 8),
                1..6,
            ),
            rocc in any::<bool>(),
        ) {
            // the launch command owns the last pair of a RoCC file
            // (`from_trace` refuses a field there); CSR files use them all
            let (style, regs) = if rocc {
                (ConfigStyle::RoccPairs { launch_funct: 13 }, SLOTS as u16 - 2)
            } else {
                (ConfigStyle::Csr, SLOTS as u16)
            };
            let file = |pairs: &[(u16, i64)]| -> OrderedFile {
                pairs.iter().map(|&(reg, value)| (reg % regs, value)).collect()
            };
            let start: RegMap = file(&resident).into_iter().collect();

            let mut ordered = file(&resident);
            let mut dense = start.clone();
            for pairs in &launches {
                let spec = LaunchSpec {
                    registers: file(pairs).into_iter().collect(),
                };
                let expected = reference_delta_writes(&mut ordered, &file(pairs), style);
                let counted = delta_walk(&mut dense.clone(), &spec.registers, style, |_| {});
                let cmds = delta_writes(&mut dense, &spec, style);
                prop_assert_eq!(&cmds, &expected);
                prop_assert_eq!(counted, expected.len() as u64);
                prop_assert_eq!(dense.len(), ordered.len());
                prop_assert_eq!(
                    as_pairs(&dense),
                    ordered.iter().map(|(&reg, &value)| (reg, value)).collect::<Vec<_>>()
                );
            }

            // the plan: every launch on the first's registers, a register
            // it does not name keeping the first launch's value
            let first = file(&launches[0]);
            let held: Vec<OrderedFile> = launches
                .iter()
                .map(|pairs| {
                    let own = file(pairs);
                    first
                        .iter()
                        .map(|(&reg, &value)| (reg, own.get(&reg).copied().unwrap_or(value)))
                        .collect()
                })
                .collect();
            let mut ordered = file(&resident);
            let total: u64 = held
                .iter()
                .map(|launch| reference_delta_writes(&mut ordered, launch, style).len() as u64)
                .sum();
            let after: RegMap = ordered.into_iter().collect();
            let files: Vec<LaunchSpec> = held
                .iter()
                .map(|launch| LaunchSpec {
                    registers: launch.iter().map(|(&reg, &value)| (reg, value)).collect(),
                })
                .collect();
            let plan = plan_of(style, files.clone()).unwrap();
            // the held form stands for exactly those files
            prop_assert!(plan.launches().eq(files));
            prop_assert_eq!(plan.writes_against(&start), total);
            let mut applied = start.clone();
            prop_assert_eq!(plan.apply_writes(&mut applied), total);
            prop_assert_eq!(&applied, &after);
            // (debug builds also run the reconstruction proof in here)
            let mut programmed = start.clone();
            let (program, writes) = plan.delta_program(&mut programmed);
            prop_assert_eq!(writes, total);
            prop_assert_eq!(&programmed, &after);
            plan.verify_delta_reconstruction(&program, &start).unwrap();
        }
    }

    /// Walks every launch of `plan` in turn: what a dispatch is, and what
    /// the first launch's walk plus the plan's constants must equal.
    fn per_launch(plan: &DispatchPlan, resident: &mut RegMap) -> u64 {
        plan.launches()
            .map(|launch| delta_walk(resident, &launch.registers, plan.style(), |_| {}))
            .sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Plans of one held set — most registers, and under RoCC pairs
        /// with one half never programmed — whose values change from
        /// launch to launch, priced against blank files, partly held ones
        /// and the plan's own: the count and the file afterwards equal the
        /// per-launch walk's.
        #[test]
        fn a_dispatch_equals_the_per_launch_walk(
            held in prop::collection::vec(0usize..4, SLOTS..SLOTS + 1),
            values in prop::collection::vec(
                prop::collection::vec(-1i64..2, SLOTS..SLOTS + 1),
                1..8,
            ),
            partial in prop::collection::vec((0u16..SLOTS as u16, -1i64..2), 0..SLOTS),
            resident_kind in 0usize..4,
            rocc in any::<bool>(),
        ) {
            // the launch command owns the last pair of a RoCC file
            let (style, regs) = if rocc {
                (ConfigStyle::RoccPairs { launch_funct: 13 }, SLOTS - 2)
            } else {
                (ConfigStyle::Csr, SLOTS)
            };
            let launches: Vec<LaunchSpec> = values
                .iter()
                .map(|row| LaunchSpec {
                    registers: (0..regs)
                        .filter(|&slot| held[slot] > 0)
                        .map(|slot| (slot as u16, row[slot]))
                        .collect(),
                })
                .collect();
            let plan = plan_of(style, launches).unwrap();

            let mut cold = RegMap::new();
            prop_assert_eq!(plan.cold_writes(), per_launch(&plan, &mut cold));
            let resident = match resident_kind {
                0 => RegMap::new(),
                1 => partial.iter().map(|&(reg, value)| (reg % regs as u16, value)).collect(),
                // the plan's own final file, and one launch's
                2 => cold,
                _ => {
                    let index = partial.len() % plan.launch_count();
                    plan.launches().nth(index).unwrap().registers
                }
            };
            let mut walked = resident.clone();
            let expected = per_launch(&plan, &mut walked);
            prop_assert_eq!(plan.writes_against(&resident), expected);
            let mut applied = resident.clone();
            prop_assert_eq!(plan.apply_writes(&mut applied), expected);
            prop_assert_eq!(&applied, &walked);
            // (debug builds also run the reconstruction proof in here)
            let mut programmed = resident.clone();
            prop_assert_eq!(plan.delta_program(&mut programmed).1, expected);
            prop_assert_eq!(&programmed, &walked);
        }
    }

    #[test]
    fn a_plan_whose_held_set_changes_is_refused_at_the_launch_that_changes_it() {
        let rocc = ConfigStyle::RoccPairs { launch_funct: 13 };
        let new = |style, launches: &[&[(u16, i64)]]| {
            plan_of(style, launches.iter().map(|regs| launch(regs)).collect())
                .map(|plan| plan.launch_count())
        };
        for style in [ConfigStyle::Csr, rocc] {
            // one held set, values changing: accepted, whatever the length
            assert_eq!(new(style, &[]), Ok(0));
            assert_eq!(new(style, &[&[(0, 1), (4, 2)], &[(0, 3), (4, 2)]]), Ok(2));
            // a register first held at launch 1
            assert_eq!(
                new(style, &[&[(0, 1)], &[(0, 1), (2, 5)], &[(0, 2), (2, 5)]]),
                Err(1)
            );
            // the halves of a pair first held apart
            assert_eq!(new(style, &[&[(1, 3)], &[(0, 5)], &[(1, 3)]]), Err(1));
            // launch 2 drops register 2, which launch 1 left at 6
            assert_eq!(
                new(style, &[&[(0, 1), (2, 5)], &[(0, 1), (2, 6)], &[(0, 2)]]),
                Err(2)
            );
        }
    }

    #[test]
    fn the_constructor_refuses_a_held_form_that_is_not_canonical() {
        let first = RegMap::from([(1, 5), (2, 0), (4, 7)]);
        let change = |launch, reg, value| Change { launch, reg, value };
        let new = |changes: &[Change]| {
            DispatchPlan::new(ConfigStyle::Csr, 3, first.clone(), changes.to_vec())
                .map(|plan| plan.launches().map(|l| l.registers).collect::<Vec<_>>())
        };
        // canonical: launch 1 changes two registers, launch 2 none
        assert_eq!(
            new(&[change(1, 1, 6), change(1, 4, 8)]),
            Ok(vec![
                first.clone(),
                RegMap::from([(1, 6), (2, 0), (4, 8)]),
                RegMap::from([(1, 6), (2, 0), (4, 8)]),
            ])
        );
        for (changes, launch) in [
            // a register launch 0 does not hold: the held set would change
            (&[change(1, 3, 1)][..], 1),
            (&[change(2, 28, 1)][..], 2),
            // out of ascending order, and twice
            (&[change(1, 4, 8), change(1, 1, 6)][..], 1),
            (&[change(2, 1, 6), change(2, 1, 7)][..], 2),
            // the value the register already holds
            (&[change(1, 2, 0)][..], 1),
            (&[change(1, 1, 6), change(2, 1, 6)][..], 2),
            // launch 0, a launch out of order, and one past the plan
            (&[change(0, 1, 6)][..], 0),
            (&[change(2, 1, 6), change(1, 4, 8)][..], 1),
            (&[change(3, 1, 6)][..], 3),
        ] {
            assert_eq!(new(changes), Err(launch), "{changes:?}");
        }
    }

    #[test]
    fn from_trace_refuses_a_trace_whose_held_set_changes() {
        use accfg::interp::interpret;
        use accfg_ir::{FuncBuilder, Module};
        // `M` held from launch 0, `K` first held at launch `grows_at`
        let trace = |grows_at: usize| {
            let mut m = Module::new();
            let (mut b, _) = FuncBuilder::new_func(&mut m, "f", vec![]);
            let (eight, sixty_four) = (b.const_index(8), b.const_index(64));
            let mut state = b.setup("opengemm", &[("M", eight)]);
            for index in 0..3 {
                if index == grows_at {
                    state = b.setup_from("opengemm", state, &[("K", sixty_four)]);
                }
                let token = b.launch("opengemm", state);
                b.await_token("opengemm", token);
            }
            b.ret(vec![]);
            interpret(&m, "f", &[], 1_000).unwrap()
        };
        let desc = AcceleratorDescriptor::opengemm();
        let plan = DispatchPlan::from_trace(&trace(0), &desc).unwrap();
        assert_eq!(plan.launch_count(), 3);
        for launch in [1, 2] {
            let err = DispatchPlan::from_trace(&trace(launch), &desc).unwrap_err();
            assert_eq!(
                err,
                ServeError::HeldSetChanges {
                    accelerator: "opengemm".into(),
                    launch,
                }
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "launch {launch} of a plan for `opengemm` holds a different register \
                     set from launch 0"
                )
            );
        }
    }

    /// The pair commands `program` issues before each launch command.
    fn rocc_writes_by_launch(program: &Program, launch_funct: u8) -> Vec<Vec<WriteCmd>> {
        use accfg_sim::Inst;
        let mut env = BTreeMap::new();
        let (mut launches, mut writes) = (Vec::new(), Vec::new());
        for inst in program.insts() {
            match *inst {
                Inst::Li { rd, imm } => {
                    env.insert(rd.0, imm);
                }
                Inst::RoccCmd { funct, .. } if funct == launch_funct => {
                    launches.push(std::mem::take(&mut writes));
                }
                Inst::RoccCmd { funct, rs1, rs2 } => writes.push(WriteCmd::Rocc {
                    funct,
                    lo: env[&rs1.0],
                    hi: env[&rs2.0],
                }),
                _ => {}
            }
        }
        launches
    }

    #[test]
    fn a_later_launch_that_changes_half_a_pair_writes_the_whole_pair() {
        let style = ConfigStyle::RoccPairs { launch_funct: 13 };
        // pair 1 held whole, pair 2's high half never programmed: launch 1
        // changes register 3 alone, launch 2 register 4 alone
        let plan = plan_of(
            style,
            vec![
                launch(&[(2, 5), (3, 6), (4, 1)]),
                launch(&[(2, 5), (3, 7), (4, 1)]),
                launch(&[(2, 5), (3, 7), (4, 8)]),
            ],
        )
        .unwrap();
        // the plan holds the changed halves alone
        let runs: Vec<Vec<(u16, i64)>> = plan
            .runs()
            .map(|run| run.iter().map(|c| (c.reg, c.value)).collect())
            .collect();
        assert_eq!(runs, [vec![(3, 7)], vec![(4, 8)]]);
        // a dispatch still writes each changed half's whole pair, its fresh
        // half included and an unprogrammed half as 0, cold and warm alike
        let rocc = |funct, lo, hi| WriteCmd::Rocc { funct, lo, hi };
        let mut resident = RegMap::new();
        let (cold, writes) = plan.delta_program(&mut resident);
        assert_eq!(writes, 4);
        assert_eq!(
            rocc_writes_by_launch(&cold, 13),
            [
                vec![rocc(1, 5, 6), rocc(2, 1, 0)],
                vec![rocc(1, 5, 7)],
                vec![rocc(2, 8, 0)]
            ]
        );
        assert_eq!(resident, RegMap::from([(2, 5), (3, 7), (4, 8), (5, 0)]));
        let (warm, writes) = plan.delta_program(&mut resident);
        assert_eq!(writes, 4);
        assert_eq!(
            rocc_writes_by_launch(&warm, 13),
            [
                vec![rocc(1, 5, 6), rocc(2, 1, 0)],
                vec![rocc(1, 5, 7)],
                vec![rocc(2, 8, 0)]
            ]
        );
        // the shadow commit agrees, count and file
        let mut applied = RegMap::new();
        assert_eq!(plan.apply_writes(&mut applied), 4);
        assert_eq!(applied, resident);
    }

    #[test]
    fn rocc_pairs_are_judged_against_the_file_the_launch_found() {
        let style = ConfigStyle::RoccPairs { launch_funct: 13 };
        let walk = |resident: &[(u16, i64)], regs: &[(u16, i64)]| {
            let mut resident: RegMap = resident.iter().copied().collect();
            let cmds = delta_writes(&mut resident, &launch(regs), style);
            (cmds, as_pairs(&resident))
        };
        let rocc = |funct, lo, hi| WriteCmd::Rocc { funct, lo, hi };

        // one stale half: the pair goes out whole, its fresh half included
        let (cmds, after) = walk(&[(2, 5), (3, 6)], &[(2, 5), (3, 7)]);
        assert_eq!(cmds, vec![rocc(1, 5, 7)]);
        assert_eq!(after, vec![(2, 5), (3, 7)]);

        // an unprogrammed half of a stale pair is driven to 0 — not left
        // at the resident 9 — and is held afterwards
        let (cmds, after) = walk(&[(4, 1), (5, 9)], &[(4, 2)]);
        assert_eq!(cmds, vec![rocc(2, 2, 0)]);
        assert_eq!(after, vec![(4, 2), (5, 0)]);
        // ... while an unprogrammed half of a *fresh* pair is not looked at
        let (cmds, after) = walk(&[(4, 2), (5, 9)], &[(4, 2)]);
        assert_eq!(cmds, vec![]);
        assert_eq!(after, vec![(4, 2), (5, 9)]);

        // a pair the resident holds and the launch never mentions persists
        let (cmds, after) = walk(&[(0, 1), (1, 2), (6, 3), (7, 4)], &[(0, 1), (1, 2)]);
        assert_eq!(cmds, vec![]);
        assert_eq!(after, vec![(0, 1), (1, 2), (6, 3), (7, 4)]);

        // a launch that names only the high half, onto a blank file: the
        // low half is written as 0 and held; a 0 the launch *does* program
        // over a blank file is a write too (absent is not zero)
        let (cmds, after) = walk(&[], &[(9, 7)]);
        assert_eq!(cmds, vec![rocc(4, 0, 7)]);
        assert_eq!(after, vec![(8, 0), (9, 7)]);
        let (cmds, after) = walk(&[], &[(10, 0)]);
        assert_eq!(cmds, vec![rocc(5, 0, 0)]);
        assert_eq!(after, vec![(10, 0), (11, 0)]);
    }

    #[test]
    fn a_regmap_is_a_mapping() {
        let mut regs = RegMap::new();
        assert!(regs.is_empty());
        assert_eq!(regs.len(), 0);
        regs.insert(9, 4);
        regs.insert(2, 0);
        regs.insert(9, 5);
        regs.insert(27, -1);
        assert_eq!(regs.len(), 3);
        // ascending, whatever the insertion order
        assert_eq!(as_pairs(&regs), vec![(2, 0), (9, 5), (27, -1)]);
        assert_eq!(regs[&9], 5);
        // a held zero is held; an absent register and one past the file
        // are both `None`
        assert_eq!(regs.get(&2), Some(&0));
        assert_eq!(regs.get(&3), None);
        assert_eq!(regs.get(&(SLOTS as u16)), None);
        assert_eq!(regs.get(&u16::MAX), None);
        assert_eq!(format!("{regs:?}"), "{2: 0, 9: 5, 27: -1}");

        // equality is equality as a mapping: insertion order and
        // overwritten values leave no trace, a held zero differs from absent
        let mut other = RegMap::from([(27, -1), (9, 0), (2, 0)]);
        assert_ne!(regs, other);
        other.insert(9, 5);
        assert_eq!(regs, other);
        assert_ne!(RegMap::from([(2, 0)]), RegMap::new());
        regs.clear();
        assert_eq!(regs, RegMap::new());
        assert_eq!(regs.get(&9), None);
    }

    #[test]
    #[should_panic(expected = "past the 28-register file")]
    fn a_regmap_has_no_register_past_the_file() {
        RegMap::new().insert(SLOTS as u16, 1);
    }

    #[test]
    fn a_field_mapped_past_the_register_file_is_a_typed_build_error() {
        use accfg::pipeline::OptLevel;
        use accfg_workloads::MatmulSpec;
        // a custom descriptor whose table points one field at register 40:
        // the simulator has 28, so a plan naming it could be neither
        // diffed nor run
        let field = "streamer_A_bound";
        let spec = MatmulSpec::opengemm_paper(16).unwrap();
        let mut desc = AcceleratorDescriptor::opengemm();
        field_at(&mut desc, field, 40);
        let err = crate::cache::build_module(&desc, spec, OptLevel::All).unwrap_err();
        assert_eq!(
            err,
            ServeError::RegisterOutOfRange {
                accelerator: "opengemm".into(),
                field: field.into(),
                reg: 40,
            }
        );
        assert_eq!(
            err.to_string(),
            "field `streamer_A_bound` of `opengemm` maps to configuration register 40, \
             past the 28-register file"
        );
        // the file's last register is one; the next is not
        field_at(&mut desc, field, SLOTS as u16 - 1);
        assert!(crate::cache::build_module(&desc, spec, OptLevel::All).is_ok());
        field_at(&mut desc, field, SLOTS as u16);
        assert!(matches!(
            crate::cache::build_module(&desc, spec, OptLevel::All),
            Err(ServeError::RegisterOutOfRange { reg: 28, .. })
        ));
    }

    fn field_at(desc: &mut AcceleratorDescriptor, name: &str, reg: u16) {
        desc.fields.iter_mut().find(|f| f.name == name).unwrap().reg = reg;
    }
}
