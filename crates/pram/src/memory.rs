//! Simulated shared memory: a set of named `i64` arrays, with scoped
//! workspace recycling and generation-checked handles.
//!
//! The reproduced algorithms follow the paper's in-place discipline: the
//! input points live in a read-only host array and shared memory holds only
//! ids, flags, problem numbers and o(n) workspace. Arrays are allocated up
//! front (allocation is host bookkeeping, not a PRAM operation) and then
//! only mutated through [`crate::Machine::step`] commits — except for
//! explicitly host-side initialisation via [`Shm::host_set`], which models
//! "the input arrives in memory" and costs nothing.
//!
//! # Scoped workspace arenas
//!
//! The paper's primitives (concurrent OR, knockout minimum, prefix sums, …)
//! each need a few cells of workspace, and the algorithms invoke them inside
//! loops. Originally every invocation allocated fresh arrays that lived for
//! the whole run, so long recursions leaked memory *and* slowed every
//! subsequent commit (the machine's committer indexes all arrays ever
//! allocated). [`Shm::scope`] fixes both: arrays allocated inside a scope
//! are returned to a size-bucketed free list when the scope exits, and the
//! next allocation of a similar size reuses the slot — same slot index, same
//! heap buffer, zero steady-state growth:
//!
//! ```
//! # use ipch_pram::Shm;
//! let mut shm = Shm::new();
//! let before = shm.array_count();
//! for _ in 0..1000 {
//!     shm.scope(|shm| {
//!         let ws = shm.alloc("loop.workspace", 64, 0);
//!         shm.host_set(ws, 0, 1); // … run steps against ws …
//!     });
//! }
//! assert_eq!(shm.array_count(), before + 1, "workspace slot is recycled");
//! ```
//!
//! # Scope safety: generation-checked handles
//!
//! An [`ArrayId`] allocated inside a scope is *dead* once the scope exits —
//! the slot may be handed to a later allocation of any size. Results that
//! must outlive the scope are either read out host-side before the scope
//! closes or kept alive with [`Shm::promote`]. Every `ArrayId` carries the
//! **generation** of its slot, and every access checks it: using a dead id —
//! even after its slot has been recycled to a new array of the same size —
//! fails with the uniform typed error [`ShmError::StaleArrayId`] instead of
//! silently aliasing recycled workspace. Out-of-range indices likewise fail
//! with [`ShmError::OutOfBounds`]. The panicking accessors ([`Shm::get`],
//! [`Shm::slice`], [`Shm::host_set`], …) all panic with the corresponding
//! `ShmError` message; `try_` variants ([`Shm::try_get`], …) return the
//! error for callers (and tests) that want to handle it.
//!
//! # Shadow initialisation tracking
//!
//! For the [`crate::analyze`] layer, [`Shm::enable_shadow`] attaches a
//! per-cell initialisation bitmap: cells become initialised by the alloc
//! fill (configurable), by host writes, or by committed step writes. The
//! analyzer reports reads of never-initialised cells. Disabled by default
//! and entirely absent from the hot path when off.

use std::borrow::Cow;

use crate::Word;

/// Handle to one shared array: a slot index plus the slot's generation at
/// allocation time. Accessing the slot after the owning scope has exited
/// (which bumps the generation) is a [`ShmError::StaleArrayId`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArrayId {
    pub(crate) slot: u32,
    pub(crate) gen: u32,
}

impl ArrayId {
    /// The raw slot index (machine-internal: write-log and read-trace keys
    /// are keyed by slot).
    #[inline]
    pub(crate) fn slot(self) -> u32 {
        self.slot
    }
}

/// Uniform typed error for every illegal shared-memory access.
///
/// All panicking `Shm` accessors panic with the `Display` rendering of one
/// of these variants, so "index out of bounds" and "use after scope exit"
/// are diagnosable uniformly wherever they surface (host code, step
/// closures, or the commit pipeline's write validation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShmError {
    /// Index past the end of a live array.
    OutOfBounds {
        /// Debug name of the array.
        name: String,
        /// The offending index.
        index: usize,
        /// The array's length.
        len: usize,
    },
    /// Access through an `ArrayId` whose scope has exited: the slot was
    /// recycled (or parked on the free list) after the id was issued.
    StaleArrayId {
        /// Debug name the slot currently carries (`"<recycled>"` while
        /// parked, or the name of the array that reused the slot).
        name: String,
        /// The slot index of the dead handle.
        slot: u32,
    },
}

impl std::fmt::Display for ShmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShmError::OutOfBounds { name, index, len } => write!(
                f,
                "shm access out of bounds: index {index} >= len {len} of array \"{name}\""
            ),
            ShmError::StaleArrayId { name, slot } => write!(
                f,
                "shm use after scope exit: stale ArrayId for slot {slot} \
                 (slot now holds \"{name}\"); promote the array or read it \
                 out before its scope closes"
            ),
        }
    }
}

impl std::error::Error for ShmError {}

/// Cached base pointer of every array slot, rebuilt only when an
/// allocation changes the layout (see [`Shm::raw_parts`]).
#[derive(Default)]
struct RawCache(Vec<*mut Word>);

// SAFETY: the cached pointers are only ever dereferenced by the machine's
// commit phase, which obtains them through `Shm::raw_parts(&mut self)` —
// an exclusive borrow of the memory — and upholds cell-disjointness across
// its own threads. The cache itself is plain data.
unsafe impl Send for RawCache {}
// SAFETY: as for `Send`: shared access only copies the cached pointers,
// and every dereference goes through the exclusive `raw_parts` borrow.
unsafe impl Sync for RawCache {}

/// Optional per-cell initialisation shadow (see module docs).
#[derive(Clone, Default)]
struct ShadowInit {
    /// `init[slot][i]` — cell `i` of slot has been initialised.
    init: Vec<Vec<bool>>,
    /// Whether the alloc-time fill counts as initialising.
    fill_initializes: bool,
}

/// The shared memory of one simulated PRAM.
#[derive(Default)]
pub struct Shm {
    arrays: Vec<Vec<Word>>,
    names: Vec<Cow<'static, str>>,
    /// Per-slot generation, bumped whenever the slot is parked on the free
    /// list; an `ArrayId` is live iff its generation matches.
    gens: Vec<u32>,
    /// Per-slot input-exemption flag ([`Shm::mark_input`]): exempt arrays
    /// do not count toward the live-cell total — they model the read-only
    /// input, which the bounded-workspace discipline never charges.
    exempt: Vec<bool>,
    /// One entry per open scope: the slots allocated while it was the
    /// innermost scope (recycled when it exits).
    scopes: Vec<Vec<u32>>,
    /// Free slots bucketed by power-of-two capacity class
    /// (`free[c]` holds slots whose buffer capacity is in `(2^(c-1), 2^c]`).
    free: Vec<Vec<u32>>,
    /// Currently live (allocated, non-exempt, non-recycled) workspace cells.
    live_cells: u64,
    /// High-water mark of `live_cells` over this memory's lifetime. Always
    /// tracked — allocation is deterministic host bookkeeping, so the value
    /// is identical on every backend at every worker count.
    peak_live_cells: u64,
    /// Optional hard cap on live workspace cells ([`Shm::set_workspace_budget`]).
    workspace_budget: Option<u64>,
    /// Latch: some allocation pushed `live_cells` past the budget. Execution
    /// is never cut short — callers (the frugal supervised wrappers) read
    /// the latch after the run and void the result, exactly like the
    /// fault-plane step/work budget.
    workspace_tripped: bool,
    shadow: Option<Box<ShadowInit>>,
    raw: RawCache,
    raw_dirty: bool,
}

impl Clone for Shm {
    fn clone(&self) -> Self {
        Self {
            arrays: self.arrays.clone(),
            names: self.names.clone(),
            gens: self.gens.clone(),
            exempt: self.exempt.clone(),
            scopes: self.scopes.clone(),
            free: self.free.clone(),
            live_cells: self.live_cells,
            peak_live_cells: self.peak_live_cells,
            workspace_budget: self.workspace_budget,
            workspace_tripped: self.workspace_tripped,
            shadow: self.shadow.clone(),
            // pointers refer to the source's buffers — rebuild lazily
            raw: RawCache::default(),
            raw_dirty: true,
        }
    }
}

impl std::fmt::Debug for Shm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shm")
            .field("arrays", &self.arrays)
            .field("names", &self.names)
            .field("open_scopes", &self.scopes.len())
            .finish()
    }
}

/// Power-of-two size class of a buffer capacity (0 for empty buffers).
#[inline]
fn size_class(cap: usize) -> usize {
    (usize::BITS - cap.next_power_of_two().leading_zeros()) as usize
}

impl Shm {
    /// Empty shared memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a named array of `len` cells, all set to `fill`.
    ///
    /// Inside a [`Shm::scope`] the allocation is satisfied from the scope
    /// free list when a recycled slot of a matching size class exists, so
    /// steady-state workspace allocation touches no allocator at all (the
    /// name, too, is a `Cow` — string literals are stored without copying).
    ///
    /// # Panics
    /// If `len` exceeds `u32::MAX` cells: the machine packs cell indices
    /// into 32 bits in its write log, so a larger array would silently
    /// truncate addresses. (2³² × 8-byte words is already a 32 GiB array —
    /// far beyond anything the experiments allocate.)
    pub fn alloc(&mut self, name: impl Into<Cow<'static, str>>, len: usize, fill: Word) -> ArrayId {
        let name = name.into();
        assert!(
            len <= u32::MAX as usize,
            "Shm::alloc(\"{name}\"): {len} cells exceeds the u32::MAX addressable \
             cells per array (write-log indices are packed into 32 bits)"
        );
        let slot = match self.take_free(len) {
            Some(slot) => {
                let buf = &mut self.arrays[slot as usize];
                buf.clear();
                buf.resize(len, fill);
                self.names[slot as usize] = name;
                slot
            }
            None => {
                self.arrays.push(vec![fill; len]);
                self.names.push(name);
                self.gens.push(0);
                self.exempt.push(false);
                (self.arrays.len() - 1) as u32
            }
        };
        self.exempt[slot as usize] = false;
        self.live_cells += len as u64;
        self.peak_live_cells = self.peak_live_cells.max(self.live_cells);
        if let Some(budget) = self.workspace_budget {
            if self.live_cells > budget {
                self.workspace_tripped = true;
            }
        }
        if let Some(top) = self.scopes.last_mut() {
            top.push(slot);
        }
        if let Some(shadow) = &mut self.shadow {
            let init = shadow.fill_initializes;
            let bits = &mut shadow.init;
            if bits.len() <= slot as usize {
                bits.resize_with(slot as usize + 1, Vec::new);
            }
            bits[slot as usize].clear();
            bits[slot as usize].resize(len, init);
        }
        self.raw_dirty = true;
        ArrayId {
            slot,
            gen: self.gens[slot as usize],
        }
    }

    /// Pop a recycled slot whose buffer capacity class matches `len` (exact
    /// class, then one class up — bounding reuse waste to ~4×).
    fn take_free(&mut self, len: usize) -> Option<u32> {
        let c = size_class(len);
        for class in c..(c + 2).min(self.free.len()) {
            if let Some(slot) = self.free[class].pop() {
                return Some(slot);
            }
        }
        None
    }

    /// Open a workspace scope: arrays allocated until the matching
    /// [`Shm::pop_scope`] are recycled when it closes. Prefer the closure
    /// form [`Shm::scope`].
    pub fn push_scope(&mut self) {
        self.scopes.push(Vec::new());
    }

    /// Close the innermost scope, recycling every array allocated in it
    /// (except those [`Shm::promote`]d out). Their `ArrayId`s are dead: the
    /// slot generations advance, so any later access through a dead id is a
    /// [`ShmError::StaleArrayId`] — even after the slot is reused.
    ///
    /// # Panics
    /// If no scope is open.
    pub fn pop_scope(&mut self) {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: popping without a matching push is a caller bug, not a recoverable state"
        )]
        let slots = self
            .scopes
            .pop()
            .expect("Shm::pop_scope without push_scope");
        for slot in slots {
            let buf = &mut self.arrays[slot as usize];
            // exempt arrays were subtracted at mark_input time; everything
            // else releases its cells now (read len *before* the clear)
            if self.exempt[slot as usize] {
                self.exempt[slot as usize] = false;
            } else {
                self.live_cells -= buf.len() as u64;
            }
            buf.clear();
            let class = size_class(buf.capacity());
            if self.free.len() <= class {
                self.free.resize_with(class + 1, Vec::new);
            }
            self.free[class].push(slot);
            self.names[slot as usize] = Cow::Borrowed("<recycled>");
            self.gens[slot as usize] = self.gens[slot as usize].wrapping_add(1);
        }
        self.raw_dirty = true;
    }

    /// Run `f` inside a fresh workspace scope (see the module docs):
    /// everything it allocates is recycled on exit unless promoted.
    pub fn scope<R>(&mut self, f: impl FnOnce(&mut Shm) -> R) -> R {
        self.push_scope();
        let r = f(self);
        self.pop_scope();
        r
    }

    /// Move array `a` out of the innermost scope into the enclosing scope
    /// (or make it permanent if there is none), so it survives the innermost
    /// scope's exit. No-op if `a` does not belong to the innermost scope.
    pub fn promote(&mut self, a: ArrayId) {
        let depth = self.scopes.len();
        if depth == 0 {
            return;
        }
        let top = &mut self.scopes[depth - 1];
        if let Some(pos) = top.iter().position(|&s| s == a.slot) {
            top.swap_remove(pos);
            if depth >= 2 {
                self.scopes[depth - 2].push(a.slot);
            }
        }
    }

    /// Number of live array slots (live arrays + parked free slots). The
    /// leak benchmarks watch this: with scoped workspace it stays O(1) in
    /// the number of primitive invocations.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Exempt array `a` from workspace accounting: it models the read-only
    /// *input*, which the bounded-workspace discipline (De, Nandy & Roy's
    /// read-only setup) never charges against the O(s) scratch bound. Its
    /// cells leave the live total immediately and are not re-subtracted
    /// when the array's scope exits. Idempotent.
    ///
    /// # Panics
    /// With a [`ShmError::StaleArrayId`] message if `a`'s scope has exited.
    pub fn mark_input(&mut self, a: ArrayId) {
        if let Err(e) = self.check_live(a) {
            panic!("{e}");
        }
        if !self.exempt[a.slot as usize] {
            self.exempt[a.slot as usize] = true;
            self.live_cells -= self.arrays[a.slot as usize].len() as u64;
        }
    }

    /// Currently live workspace cells (allocated, non-exempt, non-recycled).
    pub fn live_cells(&self) -> u64 {
        self.live_cells
    }

    /// High-water mark of [`Shm::live_cells`] over this memory's lifetime.
    pub fn peak_live_cells(&self) -> u64 {
        self.peak_live_cells
    }

    /// Install (or clear) a hard cap on live workspace cells. An allocation
    /// that pushes the live total past the cap latches
    /// [`Shm::workspace_tripped`]; execution itself is never interrupted —
    /// the supervised wrappers read the latch after the attempt and void
    /// the result, the same discipline as the fault-plane step/work budget.
    pub fn set_workspace_budget(&mut self, budget: Option<u64>) {
        self.workspace_budget = budget;
    }

    /// The installed workspace budget, if any.
    pub fn workspace_budget(&self) -> Option<u64> {
        self.workspace_budget
    }

    /// True once an allocation exceeded the workspace budget (latched).
    pub fn workspace_tripped(&self) -> bool {
        self.workspace_tripped
    }

    /// Check that `a` is live (its slot generation matches).
    #[inline]
    fn check_live(&self, a: ArrayId) -> Result<(), ShmError> {
        if self.gens[a.slot as usize] != a.gen {
            return Err(ShmError::StaleArrayId {
                name: self.names[a.slot as usize].to_string(),
                slot: a.slot,
            });
        }
        Ok(())
    }

    /// Check that `a` is live and `i` is in range.
    #[inline]
    pub(crate) fn check_access(&self, a: ArrayId, i: usize) -> Result<(), ShmError> {
        self.check_live(a)?;
        let len = self.arrays[a.slot as usize].len();
        if i >= len {
            return Err(ShmError::OutOfBounds {
                name: self.names[a.slot as usize].to_string(),
                index: i,
                len,
            });
        }
        Ok(())
    }

    /// Number of cells in array `a`.
    ///
    /// # Panics
    /// With a [`ShmError::StaleArrayId`] message if `a`'s scope has exited.
    #[inline]
    pub fn len(&self, a: ArrayId) -> usize {
        match self.try_len(a) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Shm::len`], returning the typed error instead of panicking.
    #[inline]
    pub fn try_len(&self, a: ArrayId) -> Result<usize, ShmError> {
        self.check_live(a)?;
        Ok(self.arrays[a.slot as usize].len())
    }

    /// True if array `a` has no cells.
    pub fn is_empty(&self, a: ArrayId) -> bool {
        self.len(a) == 0
    }

    /// Read one cell (concurrent reads are always legal on a CRCW PRAM).
    ///
    /// # Panics
    /// With a [`ShmError`] message on a stale id or an out-of-range index.
    #[inline]
    pub fn get(&self, a: ArrayId, i: usize) -> Word {
        if self.gens[a.slot as usize] == a.gen {
            if let Some(&v) = self.arrays[a.slot as usize].get(i) {
                return v;
            }
        }
        self.access_failed(a, i)
    }

    /// `a` is live and `i` is in range: [`Shm::check_access`] without
    /// building the error, for the per-write fast path.
    #[inline]
    pub(crate) fn access_ok(&self, a: ArrayId, i: usize) -> bool {
        self.gens[a.slot as usize] == a.gen && i < self.arrays[a.slot as usize].len()
    }

    /// Panic with the typed message of a failed access. Out of line, so
    /// the per-processor read and write paths stay small enough to inline.
    #[cold]
    #[inline(never)]
    pub(crate) fn access_failed(&self, a: ArrayId, i: usize) -> ! {
        match self.check_access(a, i) {
            Err(e) => panic!("{e}"),
            Ok(()) => unreachable!("access_failed on a valid access"),
        }
    }

    /// [`Shm::get`], returning the typed error instead of panicking.
    #[inline]
    pub fn try_get(&self, a: ArrayId, i: usize) -> Result<Word, ShmError> {
        self.check_access(a, i)?;
        Ok(self.arrays[a.slot as usize][i])
    }

    /// Read-only view of a whole array (host-side inspection / verification).
    ///
    /// # Panics
    /// With a [`ShmError::StaleArrayId`] message if `a`'s scope has exited.
    #[inline]
    pub fn slice(&self, a: ArrayId) -> &[Word] {
        match self.try_slice(a) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Shm::slice`], returning the typed error instead of panicking.
    #[inline]
    pub fn try_slice(&self, a: ArrayId) -> Result<&[Word], ShmError> {
        self.check_live(a)?;
        Ok(&self.arrays[a.slot as usize])
    }

    /// Host-side write, used for input setup and between-step host logic.
    /// Not a PRAM operation; never counted.
    ///
    /// # Panics
    /// With a [`ShmError`] message on a stale id or an out-of-range index.
    pub fn host_set(&mut self, a: ArrayId, i: usize, v: Word) {
        if let Err(e) = self.try_host_set(a, i, v) {
            panic!("{e}");
        }
    }

    /// [`Shm::host_set`], returning the typed error instead of panicking.
    pub fn try_host_set(&mut self, a: ArrayId, i: usize, v: Word) -> Result<(), ShmError> {
        self.check_access(a, i)?;
        self.arrays[a.slot as usize][i] = v;
        self.mark_init(a.slot, i);
        Ok(())
    }

    /// Host-side fill of a whole array (workspace reset between phases).
    ///
    /// # Panics
    /// With a [`ShmError::StaleArrayId`] message if `a`'s scope has exited.
    pub fn host_fill(&mut self, a: ArrayId, v: Word) {
        if let Err(e) = self.check_live(a) {
            panic!("{e}");
        }
        self.arrays[a.slot as usize].fill(v);
        if let Some(shadow) = &mut self.shadow {
            if let Some(bits) = shadow.init.get_mut(a.slot as usize) {
                bits.fill(true);
            }
        }
    }

    /// Debug name of array `a`.
    ///
    /// # Panics
    /// With a [`ShmError::StaleArrayId`] message if `a`'s scope has exited.
    pub fn name(&self, a: ArrayId) -> &str {
        if let Err(e) = self.check_live(a) {
            panic!("{e}");
        }
        &self.names[a.slot as usize]
    }

    /// Debug name of a raw slot (analyzer diagnostics).
    pub(crate) fn slot_name(&self, slot: u32) -> &str {
        self.names
            .get(slot as usize)
            .map(|n| n.as_ref())
            .unwrap_or("<unknown>")
    }

    /// Attach (or reset) the per-cell initialisation shadow. With
    /// `fill_initializes` the alloc-time fill counts as initialising —
    /// the lenient default of [`crate::analyze`]; without it, only host
    /// writes and committed step writes do, which is the strict sanitizer
    /// mode for flushing out reads of never-written workspace.
    ///
    /// Arrays already allocated are treated as fully initialised.
    pub fn enable_shadow(&mut self, fill_initializes: bool) {
        let init = self.arrays.iter().map(|a| vec![true; a.len()]).collect();
        self.shadow = Some(Box::new(ShadowInit {
            init,
            fill_initializes,
        }));
    }

    /// Mark one cell initialised (no-op without a shadow).
    #[inline]
    pub(crate) fn mark_init(&mut self, slot: u32, i: usize) {
        if let Some(shadow) = &mut self.shadow {
            if let Some(bits) = shadow.init.get_mut(slot as usize) {
                if let Some(b) = bits.get_mut(i) {
                    *b = true;
                }
            }
        }
    }

    /// Whether a cell is initialised (`None` without a shadow).
    #[inline]
    pub(crate) fn is_init(&self, slot: u32, i: usize) -> Option<bool> {
        let shadow = self.shadow.as_ref()?;
        Some(
            shadow
                .init
                .get(slot as usize)
                .and_then(|bits| bits.get(i))
                .copied()
                .unwrap_or(true),
        )
    }

    /// Base pointer of every array slot, for the machine's commit
    /// phase (machine-internal). Taking `&mut self` guarantees the caller
    /// holds exclusive access to the memory for the pointers' lifetime.
    ///
    /// The cache is maintained incrementally: it is rebuilt only after an
    /// allocation (the only operation that can move a buffer or change a
    /// length), so in the steady state — scoped workspace recycling, no
    /// fresh allocations between steps — a commit pays nothing here, and
    /// commit cost no longer scales with the lifetime allocation count.
    pub(crate) fn raw_parts(&mut self) -> &[*mut Word] {
        if self.raw_dirty {
            self.raw.0.clear();
            self.raw
                .0
                .extend(self.arrays.iter_mut().map(|a| a.as_mut_ptr()));
            self.raw_dirty = false;
        }
        &self.raw.0
    }

    /// Fault-plane hook ([`crate::faults`]): flip the low bit of one
    /// hash-chosen cell of a live, non-empty array. Returns the
    /// `(slot, index)` corrupted, or `None` when no array has cells (parked
    /// free-list slots are empty, so they are never chosen). The buffer
    /// itself is untouched (same pointer, same length), so the raw-parts
    /// cache stays valid. The initialisation shadow is deliberately not
    /// updated: corruption models decay of whatever was (or wasn't) there.
    pub(crate) fn corrupt_cell(&mut self, h: u64) -> Option<(u32, usize)> {
        let nslots = self.arrays.len();
        if nslots == 0 {
            return None;
        }
        // Probe forward from a hashed start slot to the first non-empty array.
        let start = (h % nslots as u64) as usize;
        let slot = (0..nslots)
            .map(|d| (start + d) % nslots)
            .find(|&s| !self.arrays[s].is_empty())?;
        let buf = &mut self.arrays[slot];
        let idx = (crate::rng::mix64(h) % buf.len() as u64) as usize;
        buf[idx] ^= 1;
        Some((slot as u32, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut shm = Shm::new();
        let a = shm.alloc("flags", 8, 0);
        let b = shm.alloc("ids", 4, -1);
        assert_eq!(shm.len(a), 8);
        assert_eq!(shm.len(b), 4);
        assert_eq!(shm.get(b, 3), -1);
        assert_eq!(shm.name(a), "flags");
        shm.host_set(a, 2, 9);
        assert_eq!(shm.get(a, 2), 9);
        assert_eq!(shm.slice(a), &[0, 0, 9, 0, 0, 0, 0, 0]);
        shm.host_fill(a, 1);
        assert!(shm.slice(a).iter().all(|&x| x == 1));
    }

    #[test]
    fn handles_are_stable_across_allocs() {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 2, 7);
        let _ = shm.alloc("b", 2, 8);
        assert_eq!(shm.get(a, 0), 7);
    }

    #[test]
    fn owned_names_are_accepted() {
        let mut shm = Shm::new();
        let a = shm.alloc(format!("dyn{}", 3), 1, 0);
        assert_eq!(shm.name(a), "dyn3");
    }

    #[test]
    fn scope_recycles_slots_and_buffers() {
        let mut shm = Shm::new();
        let keep = shm.alloc("keep", 4, 1);
        let mut first_slot = None;
        for round in 0..100 {
            shm.scope(|shm| {
                let ws = shm.alloc("ws", 32, 0);
                match first_slot {
                    None => first_slot = Some(ws.slot),
                    Some(slot) => assert_eq!(ws.slot, slot, "round {round}: slot must be reused"),
                }
                assert_eq!(shm.slice(ws), &[0; 32], "recycled slot must be re-filled");
                shm.host_set(ws, 0, round);
            });
        }
        assert_eq!(shm.array_count(), 2);
        assert_eq!(shm.slice(keep), &[1, 1, 1, 1], "outer arrays untouched");
    }

    #[test]
    fn dead_id_is_a_stale_typed_error() {
        let mut shm = Shm::new();
        let id = shm.scope(|shm| shm.alloc("tmp", 8, 0));
        match shm.try_len(id) {
            Err(ShmError::StaleArrayId { slot, .. }) => assert_eq!(slot, id.slot),
            other => panic!("expected StaleArrayId, got {other:?}"),
        }
        assert!(shm.try_get(id, 0).is_err());
        assert!(shm.try_slice(id).is_err());
        assert!(shm.try_host_set(id, 0, 1).is_err());
    }

    #[test]
    fn dead_id_stays_stale_after_slot_reuse() {
        // The aliasing case the generations exist for: the slot is recycled
        // to a NEW array of the same size class, and the old id must still
        // be rejected rather than silently reading the new array's cells.
        let mut shm = Shm::new();
        let dead = shm.scope(|shm| shm.alloc("old", 16, 7));
        let fresh = shm.alloc("new", 16, 42);
        assert_eq!(fresh.slot, dead.slot, "slot must be recycled for the test");
        assert_eq!(shm.get(fresh, 0), 42);
        match shm.try_get(dead, 0) {
            Err(ShmError::StaleArrayId { name, .. }) => assert_eq!(name, "new"),
            other => panic!("expected StaleArrayId, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "use after scope exit")]
    fn dead_id_panics_uniformly() {
        let mut shm = Shm::new();
        let id = shm.scope(|shm| shm.alloc("tmp", 8, 0));
        let _ = shm.get(id, 0);
    }

    #[test]
    fn out_of_bounds_is_a_typed_error() {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        match shm.try_get(a, 4) {
            Err(ShmError::OutOfBounds { index, len, name }) => {
                assert_eq!((index, len), (4, 4));
                assert_eq!(name, "a");
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
        assert!(shm.try_host_set(a, 99, 1).is_err());
        assert_eq!(shm.try_get(a, 3), Ok(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics_uniformly() {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 0);
        let _ = shm.get(a, 4);
    }

    #[test]
    fn nested_scopes_recycle_independently() {
        let mut shm = Shm::new();
        shm.scope(|shm| {
            let outer = shm.alloc("outer", 16, 7);
            shm.scope(|shm| {
                let inner = shm.alloc("inner", 16, 9);
                assert_eq!(shm.get(inner, 0), 9);
                assert_eq!(shm.get(outer, 0), 7);
            });
            // outer survives the inner scope's exit
            assert_eq!(shm.get(outer, 15), 7);
        });
        assert_eq!(shm.array_count(), 2);
    }

    #[test]
    fn promote_survives_scope_exit() {
        let mut shm = Shm::new();
        let kept = shm.scope(|shm| {
            let tmp = shm.alloc("tmp", 4, 1);
            let kept = shm.alloc("kept", 4, 2);
            shm.promote(kept);
            let _ = tmp;
            kept
        });
        assert_eq!(shm.slice(kept), &[2, 2, 2, 2]);
        // the unpromoted sibling was recycled
        assert_eq!(shm.array_count(), 2);
        let reused = shm.alloc("reuse", 4, 3);
        assert_ne!(reused, kept);
    }

    #[test]
    fn free_list_does_not_serve_wildly_larger_buffers() {
        let mut shm = Shm::new();
        shm.scope(|shm| {
            shm.alloc("big", 1 << 16, 0);
        });
        // a tiny allocation must not pin the 64Ki buffer
        let small = shm.alloc("small", 2, 0);
        assert!(shm.slice(small).len() == 2);
        assert_eq!(shm.array_count(), 2);
    }

    #[test]
    fn clone_is_deep() {
        let mut shm = Shm::new();
        let a = shm.alloc("a", 4, 5);
        let mut copy = shm.clone();
        copy.host_set(a, 0, -9);
        assert_eq!(shm.get(a, 0), 5);
        assert_eq!(copy.get(a, 0), -9);
    }

    #[test]
    fn shadow_tracks_initialisation() {
        let mut shm = Shm::new();
        shm.enable_shadow(false);
        let a = shm.alloc("a", 4, 0);
        assert_eq!(shm.is_init(a.slot, 0), Some(false));
        shm.host_set(a, 0, 5);
        assert_eq!(shm.is_init(a.slot, 0), Some(true));
        assert_eq!(shm.is_init(a.slot, 1), Some(false));
        shm.host_fill(a, 1);
        assert_eq!(shm.is_init(a.slot, 3), Some(true));

        // lenient mode: the alloc fill initialises
        let mut shm = Shm::new();
        shm.enable_shadow(true);
        let b = shm.alloc("b", 4, -1);
        assert_eq!(shm.is_init(b.slot, 2), Some(true));
    }

    #[test]
    fn corrupt_cell_flips_one_live_bit_and_skips_empty_slots() {
        let mut shm = Shm::new();
        assert_eq!(shm.corrupt_cell(7), None, "no arrays: nothing to corrupt");
        // park an empty slot on the free list (too big for the next alloc
        // to recycle), then allocate a live array in a fresh slot
        shm.scope(|shm| {
            shm.alloc("tmp", 1 << 10, 0);
        });
        let a = shm.alloc("live", 4, 2);
        assert_eq!(shm.array_count(), 2, "parked slot must not be recycled");
        for h in 0..32u64 {
            let before = shm.slice(a).to_vec();
            let (slot, idx) = shm.corrupt_cell(h).expect("a non-empty array exists");
            assert_eq!(slot, a.slot, "parked empty slots must be skipped");
            assert_eq!(shm.get(a, idx), before[idx] ^ 1);
            // undo so each probe starts from a clean state
            shm.host_set(a, idx, before[idx]);
        }
    }

    #[test]
    fn live_cells_track_alloc_and_scope_exit() {
        let mut shm = Shm::new();
        assert_eq!((shm.live_cells(), shm.peak_live_cells()), (0, 0));
        let _keep = shm.alloc("keep", 10, 0);
        assert_eq!((shm.live_cells(), shm.peak_live_cells()), (10, 10));
        shm.scope(|shm| {
            let _ws = shm.alloc("ws", 32, 0);
            assert_eq!(shm.live_cells(), 42);
            assert_eq!(shm.peak_live_cells(), 42);
        });
        assert_eq!(shm.live_cells(), 10, "scope exit releases workspace");
        assert_eq!(shm.peak_live_cells(), 42, "peak is a high-water mark");
        // recycled slots do not double count
        shm.scope(|shm| {
            let _ws = shm.alloc("ws2", 30, 0);
            assert_eq!(shm.live_cells(), 40);
        });
        assert_eq!(shm.peak_live_cells(), 42);
    }

    #[test]
    fn mark_input_exempts_cells_once() {
        let mut shm = Shm::new();
        let input = shm.alloc("input", 100, 0);
        assert_eq!(shm.live_cells(), 100);
        shm.mark_input(input);
        assert_eq!(shm.live_cells(), 0, "input cells leave the live total");
        shm.mark_input(input); // idempotent
        assert_eq!(shm.live_cells(), 0);
        let _ws = shm.alloc("ws", 7, 0);
        assert_eq!(
            shm.peak_live_cells(),
            100,
            "peak saw the pre-exemption total"
        );
        assert_eq!(shm.live_cells(), 7);
    }

    #[test]
    fn mark_input_inside_scope_does_not_underflow_on_exit() {
        let mut shm = Shm::new();
        shm.scope(|shm| {
            let input = shm.alloc("input", 50, 0);
            shm.mark_input(input);
            assert_eq!(shm.live_cells(), 0);
        });
        // the exempt array's cells were subtracted at mark_input time only
        assert_eq!(shm.live_cells(), 0);
        // and the exemption flag was cleared with the slot
        let fresh = shm.alloc("fresh", 50, 0);
        assert_eq!(shm.live_cells(), 50);
        let _ = fresh;
    }

    #[test]
    fn workspace_budget_latches_on_excess() {
        let mut shm = Shm::new();
        shm.set_workspace_budget(Some(16));
        assert_eq!(shm.workspace_budget(), Some(16));
        let _a = shm.alloc("a", 16, 0);
        assert!(!shm.workspace_tripped(), "at the cap is within budget");
        shm.scope(|shm| {
            let _b = shm.alloc("b", 1, 0);
        });
        assert!(shm.workspace_tripped(), "one cell over trips the latch");
        // the latch stays set even after the workspace shrinks back
        assert_eq!(shm.live_cells(), 16);
        assert!(shm.workspace_tripped());
        // exempt input never counts against the budget
        let mut shm2 = Shm::new();
        shm2.set_workspace_budget(Some(4));
        let input = shm2.alloc("input", 1000, 0);
        shm2.mark_input(input);
        assert!(
            shm2.workspace_tripped(),
            "the alloc itself counted until mark_input ran"
        );
        let mut shm3 = Shm::new();
        let big = shm3.alloc("input", 1000, 0);
        shm3.mark_input(big);
        shm3.set_workspace_budget(Some(4));
        let _ws = shm3.alloc("ws", 4, 0);
        assert!(!shm3.workspace_tripped(), "exempt input is budget-free");
    }

    #[test]
    fn shadow_resets_on_slot_reuse() {
        let mut shm = Shm::new();
        shm.enable_shadow(false);
        let slot = shm.scope(|shm| {
            let ws = shm.alloc("ws", 8, 0);
            shm.host_set(ws, 3, 1);
            assert_eq!(shm.is_init(ws.slot, 3), Some(true));
            ws.slot
        });
        let fresh = shm.alloc("fresh", 8, 0);
        assert_eq!(fresh.slot, slot);
        assert_eq!(
            shm.is_init(fresh.slot, 3),
            Some(false),
            "reused slot must not inherit the old array's init bits"
        );
    }
}
