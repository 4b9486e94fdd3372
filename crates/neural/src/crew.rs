//! A fork-join crew: the threads one caller opens for a stretch of kernel
//! calls, and the chunking the kernels split by.
//!
//! [`with_crew`] starts `width - 1` scoped helper threads for the length of
//! one closure and makes the crew visible, through a thread-local slot, to
//! the kernels that closure runs on the opening thread. A kernel that finds
//! a crew splits its output into chunks and hands them off: the caller
//! publishes the job on an atomic word, every member (the caller included)
//! claims chunks from the word's counter until none is left, and the call
//! returns once every claimed chunk has finished. A helper that is
//! descheduled can hold the caller up only by the chunk it already claimed.
//!
//! Between jobs a helper spins for a bounded time, then parks until the next
//! job or the end of the crew; once [`with_crew`] returns, no thread of the
//! crew is left. Helpers run the caller's kernels (the closure captures the
//! caller's backend), and each keeps its own pool for temporaries.
//!
//! Splitting never changes a bit. Each kernel splits its output so that
//! every output element is computed by one chunk, by the same arithmetic in
//! the same order as the whole call (see [`crate::KernelBackend`] for the
//! rule of each kernel). Without a crew — width 1, or on any thread but the
//! one that opened it — every kernel runs whole.

use crate::backend;
use crate::scratch::Scratch;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Most chunks one kernel call splits into.
pub(crate) const MAX_CHUNKS: usize = 32;

/// Chunks per crew member a kernel aims for. More than one, so that members
/// running at different speeds (a VM's cores often do) still finish
/// together: the faster ones claim more chunks.
pub(crate) const CHUNKS_PER_MEMBER: usize = 4;

/// Chunks per crew member of a weight-gradient flush. Every chunk of a flush
/// streams all items' rows of both operands, so a flush splits into fewer,
/// larger chunks.
pub(crate) const FLUSH_CHUNKS_PER_MEMBER: usize = 2;

/// Least work (multiply-adds, or element operations) worth a chunk of its
/// own: a few microseconds, against a handoff well under one.
const MIN_CHUNK_WORK: usize = 1 << 15;

/// How long a helper waits for the next job before it parks: pure spinning
/// first, then spinning that yields the core to any other runnable thread.
const SPIN: Duration = Duration::from_micros(20);
const SPIN_YIELDING: Duration = Duration::from_micros(200);

/// A kernel call's chunk body: `body(chunk, temps)`, where `temps` is the
/// running member's own pool for temporaries.
pub(crate) type Chunk<'a> = dyn Fn(usize, &mut Scratch) + Sync + 'a;

thread_local! {
    /// The crew this thread opened, while no job of it is in flight (a job
    /// takes it out).
    static CREW: Cell<Option<Crew>> = const { Cell::new(None) };
    /// The width kernels on this thread split for: the open crew's, or 1
    /// without one or inside a chunk.
    static WIDTH: Cell<usize> = const { Cell::new(1) };
    /// Whether this thread has a crew open.
    static OPEN: Cell<bool> = const { Cell::new(false) };
}

#[cfg(test)]
thread_local! {
    /// Chunk count every kernel on this thread splits into, crew or not.
    pub(crate) static FORCED_CHUNKS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Helper threads this thread has started.
    pub(crate) static SPAWNED: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with a crew of `width` threads — this one and `width - 1`
/// scoped helpers — open to the kernels it calls on this thread, and closes
/// the crew before returning. Width 1, or a call inside an open crew, runs
/// `f` alone and starts no thread.
///
/// # Panics
///
/// Re-raises a panic of `f` or of any chunk, after every helper has exited.
pub fn with_crew<R>(width: usize, f: impl FnOnce() -> R) -> R {
    if width <= 1 || OPEN.get() {
        return f();
    }
    let shared = Arc::new(Shared::default());
    thread::scope(|scope| {
        let helpers: Vec<Thread> = (1..width)
            .map(|_| {
                let shared = Arc::clone(&shared);
                #[cfg(test)]
                SPAWNED.set(SPAWNED.get() + 1);
                scope.spawn(move || shared.serve()).thread().clone()
            })
            .collect();
        let _close = Close {
            shared: &shared,
            helpers: &helpers,
        };
        CREW.set(Some(Crew {
            shared: Arc::clone(&shared),
            helpers: helpers.clone(),
            epoch: 0,
        }));
        OPEN.set(true);
        WIDTH.set(width);
        f()
    })
}

/// The width kernels on this thread split for: the open crew's, 1 without
/// one.
#[cfg(test)]
pub(crate) fn width() -> usize {
    WIDTH.get()
}

/// How a kernel may split: `units` output units (rows, items or elements)
/// split only at multiples of `align` units, `work` operations in all, and
/// up to `per_member` chunks for each crew member.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    pub(crate) units: usize,
    pub(crate) align: usize,
    pub(crate) work: usize,
    pub(crate) per_member: usize,
}

impl Split {
    /// How many chunks the kernel splits into: 1 without a crew, otherwise
    /// `per_member` for every member, but none smaller than
    /// [`MIN_CHUNK_WORK`] and none off an `align` multiple.
    pub(crate) fn chunks(&self) -> usize {
        let blocks = self.units.div_ceil(self.align.max(1));
        #[cfg(test)]
        if let Some(forced) = FORCED_CHUNKS.get() {
            return forced.min(blocks).max(1);
        }
        let width = WIDTH.get();
        if width <= 1 {
            return 1;
        }
        (width * self.per_member)
            .min(blocks)
            .min(self.work / MIN_CHUNK_WORK)
            .clamp(1, MAX_CHUNKS)
    }

    /// Chunk `chunk`'s units of a split into `chunks`.
    pub(crate) fn range(&self, chunks: usize, chunk: usize) -> Range<usize> {
        range(self.units, self.align, chunks, chunk)
    }
}

/// Chunk `chunk` of `chunks` ranges tiling `0..units` at multiples of
/// `align` (only the last range may end off a multiple).
pub(crate) fn range(units: usize, align: usize, chunks: usize, chunk: usize) -> Range<usize> {
    let blocks = units.div_ceil(align.max(1));
    let at = |c: usize| (c * blocks / chunks * align).min(units);
    at(chunk)..at(chunk + 1)
}

/// Splits `data`, `unit_len` values per unit, into the pieces of the
/// [`range`]s of `chunks` chunks over `units` units.
pub(crate) fn pieces(
    mut data: &mut [f32],
    unit_len: usize,
    units: usize,
    align: usize,
    chunks: usize,
) -> impl Iterator<Item = &mut [f32]> {
    (0..chunks).map(move |c| {
        let (piece, rest) =
            std::mem::take(&mut data).split_at_mut(range(units, align, chunks, c).len() * unit_len);
        data = rest;
        piece
    })
}

/// One disjoint piece of a kernel's outputs per chunk, each taken once by
/// the chunk that runs it.
pub(crate) struct Parts<P> {
    slots: [Mutex<Option<P>>; MAX_CHUNKS],
}

impl<P: Send> Parts<P> {
    /// Holds `parts`, the `c`-th for chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics on more than [`MAX_CHUNKS`] parts.
    pub(crate) fn new(parts: impl IntoIterator<Item = P>) -> Self {
        let mut parts = parts.into_iter();
        let slots = std::array::from_fn(|_| Mutex::new(parts.next()));
        assert!(parts.next().is_none(), "more than {MAX_CHUNKS} chunks");
        Self { slots }
    }

    /// Chunk `chunk`'s piece.
    ///
    /// # Panics
    ///
    /// Panics when the piece was already taken.
    pub(crate) fn take(&self, chunk: usize) -> P {
        self.slots[chunk]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .expect("each chunk runs once")
    }
}

/// Runs `body(chunk, temps)` for every chunk in `0..chunks` and returns once
/// all have finished: across the crew when this thread has one open and no
/// job of it is in flight, otherwise in chunk order on this thread. The
/// caller's chunks get `temps`.
///
/// # Panics
///
/// Re-raises the first panic of a chunk, once every claimed chunk has
/// finished (the chunks left unclaimed by then are skipped).
pub(crate) fn run(chunks: usize, temps: &mut Scratch, body: &Chunk<'_>) {
    match CREW.take() {
        Some(mut crew) if chunks > 1 => {
            // Kernels called inside a chunk run whole.
            let width = WIDTH.replace(1);
            let result = crew.run(chunks, temps, body);
            WIDTH.set(width);
            CREW.set(Some(crew));
            if let Err(payload) = result {
                panic::resume_unwind(payload);
            }
        }
        crew => {
            CREW.set(crew);
            for chunk in 0..chunks {
                body(chunk, temps);
            }
        }
    }
}

/// Splits `out`, `unit_len` values per unit, into the chunks of `split`
/// and runs `body(units, piece)` for each, across the crew when one is
/// open. Without a split this is one `body(0..units, out)` call.
pub(crate) fn split_mut(
    split: Split,
    out: &mut [f32],
    unit_len: usize,
    body: &(dyn Fn(Range<usize>, &mut [f32]) + Sync),
) {
    let chunks = split.chunks();
    if chunks == 1 {
        return body(0..split.units, out);
    }
    let parts = Parts::new(pieces(out, unit_len, split.units, split.align, chunks));
    run(
        chunks,
        &mut Scratch::with_backend(backend::reference()),
        &|c, _| body(split.range(chunks, c), parts.take(c)),
    );
}

/// The opening thread's handle on its crew.
struct Crew {
    shared: Arc<Shared>,
    helpers: Vec<Thread>,
    /// Epoch of the last job published.
    epoch: u32,
}

/// A thin pointer's worth of job: the caller's chunk body, which lives in
/// [`Crew::run`]'s frame for as long as the job is current.
struct Job<'a> {
    body: &'a Chunk<'a>,
}

/// The state the caller and its helpers share.
#[derive(Default)]
struct Shared {
    /// The job word: epoch (bits 32..64), chunk count (16..32) and next
    /// unclaimed chunk (0..16). A claim is a compare-exchange on the whole
    /// word, so it succeeds only while its job is the current one.
    word: AtomicU64,
    /// The current job, published before its epoch.
    job: AtomicPtr<Job<'static>>,
    /// Chunks of the current job that have finished (or were skipped).
    done: AtomicUsize,
    /// Whether a chunk of the current job panicked; the chunks claimed
    /// after that are skipped.
    panicked: AtomicBool,
    /// The first panic of the current job.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    /// Helpers parked or about to park.
    parked: AtomicUsize,
    /// Set when the crew closes.
    closed: AtomicBool,
}

fn pack(epoch: u32, chunks: usize, next: usize) -> u64 {
    (u64::from(epoch) << 32) | ((chunks as u64) << 16) | next as u64
}

fn unpack(word: u64) -> (u32, usize, usize) {
    (
        (word >> 32) as u32,
        (word >> 16 & 0xffff) as usize,
        (word & 0xffff) as usize,
    )
}

impl Shared {
    /// Claims the next chunk of the job of `epoch`, while one is left.
    fn claim(&self, epoch: u32) -> Option<usize> {
        let mut word = self.word.load(Ordering::Acquire);
        loop {
            let (current, chunks, next) = unpack(word);
            if current != epoch || next >= chunks {
                return None;
            }
            match self.word.compare_exchange_weak(
                word,
                word + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(next),
                Err(now) => word = now,
            }
        }
    }

    /// Runs one claimed chunk, unless a chunk of its job already panicked,
    /// and counts it finished.
    fn execute(&self, body: &Chunk<'_>, chunk: usize, temps: &mut Scratch) {
        if !self.panicked.load(Ordering::Relaxed) {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(chunk, temps))) {
                self.panicked.store(true, Ordering::Relaxed);
                self.payload
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .get_or_insert(payload);
            }
        }
        self.done.fetch_add(1, Ordering::Release);
    }

    /// A helper's life: wait for a job newer than the last one seen, claim
    /// and run its chunks, repeat until the crew closes.
    fn serve(&self) {
        let mut temps = Scratch::with_backend(backend::reference());
        let mut seen = 0;
        while let Some(epoch) = self.next_job(seen) {
            seen = epoch;
            loop {
                let job = self.job.load(Ordering::Acquire);
                let Some(chunk) = self.claim(epoch) else {
                    break;
                };
                // SAFETY: `job` was loaded after this helper saw `epoch` in
                // the word (an acquire load that synchronises with the
                // release store publishing it, and `Crew::run` stores the
                // job pointer before the word), so it is this epoch's job or
                // a later one. The claim then found the word still at
                // `epoch` with a chunk unclaimed, while the caller stores a
                // later job only after every chunk of this one has been
                // claimed and has finished; so `job` is this epoch's job.
                // Its `Job` lives in `Crew::run`'s frame, which returns only
                // once `done` counts every chunk, and this chunk counts
                // itself done only when `execute` has returned.
                let job = unsafe { &*job };
                self.execute(job.body, chunk, &mut temps);
            }
        }
    }

    /// Waits for the word's epoch to move past `seen`: spins, then spins
    /// yielding the core, then parks. `None` once the crew has closed.
    fn next_job(&self, seen: u32) -> Option<u32> {
        let mut started = Instant::now();
        let mut spins = 0u32;
        loop {
            // Read the clock before the word, so that a wait ends in a park
            // only when the word held no new job for its whole length (a
            // helper descheduled between the two reads sees the new job).
            let waited = spins.is_multiple_of(64).then(|| started.elapsed());
            spins = spins.wrapping_add(1);
            let (epoch, _, _) = unpack(self.word.load(Ordering::Acquire));
            if epoch != seen {
                return Some(epoch);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            match waited {
                Some(waited) if waited >= SPIN_YIELDING => {
                    // Announce the park before the last look at the word:
                    // the caller publishes, then reads `parked` (both
                    // sequentially consistent), so either this look sees
                    // the new job or the caller sees this helper and
                    // unparks it.
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    let (epoch, _, _) = unpack(self.word.load(Ordering::SeqCst));
                    if epoch == seen && !self.closed.load(Ordering::SeqCst) {
                        thread::park();
                    }
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    started = Instant::now();
                }
                Some(waited) if waited >= SPIN => thread::yield_now(),
                _ => std::hint::spin_loop(),
            }
        }
    }
}

impl Crew {
    /// Publishes one job, runs the chunks this thread claims, and waits for
    /// the chunks the helpers claimed. Returns the first chunk panic.
    fn run(
        &mut self,
        chunks: usize,
        temps: &mut Scratch,
        body: &Chunk<'_>,
    ) -> Result<(), Box<dyn Any + Send>> {
        assert!(chunks <= MAX_CHUNKS, "more than {MAX_CHUNKS} chunks");
        // Epochs never repeat within a crew, so a stale claim cannot match
        // a later job; a crew that ran out of them runs its jobs alone.
        let Some(epoch) = self.epoch.checked_add(1) else {
            return panic::catch_unwind(AssertUnwindSafe(|| {
                (0..chunks).for_each(|chunk| body(chunk, temps))
            }));
        };
        self.epoch = epoch;
        let shared = &*self.shared;
        let job = Job { body };
        // Every chunk of the previous job has finished, so nothing else
        // touches these two now; the store of the word below releases them
        // to the helpers that claim this job's chunks (acquire).
        shared.done.store(0, Ordering::Relaxed);
        shared.panicked.store(false, Ordering::Relaxed);
        shared.job.store(
            &job as *const Job<'_> as *mut Job<'static>,
            Ordering::Release,
        );
        shared.word.store(pack(epoch, chunks, 0), Ordering::SeqCst);
        if shared.parked.load(Ordering::SeqCst) > 0 {
            self.helpers.iter().for_each(Thread::unpark);
        }
        while let Some(chunk) = shared.claim(epoch) {
            shared.execute(body, chunk, temps);
        }
        // Every chunk is claimed; wait for those still running elsewhere.
        let mut spins = 0u32;
        while shared.done.load(Ordering::Acquire) < chunks {
            if spins < 1 << 10 {
                spins += 1;
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        match shared
            .payload
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }
}

/// Closes the crew when [`with_crew`]'s closure returns or unwinds: the
/// helpers leave their wait, and the scope then joins them.
struct Close<'a> {
    shared: &'a Shared,
    helpers: &'a [Thread],
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        CREW.take();
        WIDTH.set(1);
        OPEN.set(false);
        self.shared.closed.store(true, Ordering::SeqCst);
        self.helpers.iter().for_each(Thread::unpark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    #[test]
    fn width_one_starts_no_thread() {
        let before = SPAWNED.get();
        let caller = thread::current().id();
        let ran = Mutex::new(Vec::new());
        with_crew(1, || {
            assert_eq!(width(), 1);
            run(5, &mut Scratch::new(), &|chunk, _| {
                assert_eq!(thread::current().id(), caller);
                ran.lock().unwrap().push(chunk);
            });
        });
        assert_eq!(*ran.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(SPAWNED.get(), before);
        // A crew opened inside an open crew runs alone: one helper in all.
        with_crew(2, || with_crew(3, || assert_eq!(width(), 2)));
        assert_eq!(SPAWNED.get(), before + 1);
        assert_eq!(width(), 1);
    }

    #[test]
    fn every_chunk_runs_once_in_every_job() {
        for width in [2, 3] {
            with_crew(width, || {
                for chunks in 1..=MAX_CHUNKS {
                    let counts: Vec<AtomicUsize> =
                        (0..chunks).map(|_| AtomicUsize::new(0)).collect();
                    run(chunks, &mut Scratch::new(), &|chunk, _| {
                        counts[chunk].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(
                        counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                        "width {width}, {chunks} chunks"
                    );
                }
            });
        }
    }

    /// A helper held inside its chunk holds the caller up by that chunk
    /// alone: the caller drains every other chunk, and the job returns only
    /// once the held chunk has finished.
    #[test]
    fn a_held_helper_holds_up_only_its_own_chunk() {
        const CHUNKS: usize = 6;
        let caller = thread::current().id();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (ran_tx, ran_rx) = mpsc::channel();
        let (entered_rx, release_rx) = (Mutex::new(entered_rx), Mutex::new(release_rx));
        let returned = AtomicBool::new(false);
        thread::scope(|scope| {
            let returned = &returned;
            let controller = scope.spawn(move || {
                let mut on_caller = 0;
                while on_caller < CHUNKS - 1 {
                    let (_, by_caller): (usize, bool) = ran_rx.recv().unwrap();
                    assert!(by_caller, "the held helper ran a second chunk");
                    on_caller += 1;
                }
                let early = returned.load(Ordering::SeqCst);
                release_tx.send(()).unwrap();
                let (_, by_caller) = ran_rx.recv().unwrap();
                (early, by_caller)
            });
            with_crew(2, || {
                run(CHUNKS, &mut Scratch::new(), &|chunk, _| {
                    if thread::current().id() == caller {
                        // The caller's first chunk waits until the helper
                        // holds one, so the helper cannot find them all gone.
                        if chunk == 0 {
                            entered_rx.lock().unwrap().recv().unwrap();
                        }
                        ran_tx.send((chunk, true)).unwrap();
                    } else {
                        entered_tx.send(chunk).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                        ran_tx.send((chunk, false)).unwrap();
                    }
                });
                returned.store(true, Ordering::SeqCst);
            });
            let (early, last_by_caller) = controller.join().unwrap();
            assert!(!early, "the job returned while a claimed chunk was held");
            assert!(!last_by_caller, "the held chunk did not finish last");
        });
    }

    /// A panicking chunk reaches the caller only once every claimed chunk
    /// has finished: here the caller's chunk panics while a helper is held
    /// inside another.
    #[test]
    fn a_chunk_panic_reaches_the_caller_after_every_claimed_chunk() {
        let caller = thread::current().id();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (panicking_tx, panicking_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let (entered_rx, release_rx) = (Mutex::new(entered_rx), Mutex::new(release_rx));
        let (held, held_finished) = (AtomicBool::new(false), AtomicBool::new(false));
        thread::scope(|scope| {
            scope.spawn(move || {
                panicking_rx.recv().unwrap();
                release_tx.send(()).unwrap();
            });
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                with_crew(2, || {
                    run(4, &mut Scratch::new(), &|chunk, _| {
                        if thread::current().id() == caller {
                            entered_rx.lock().unwrap().recv().unwrap();
                            panicking_tx.send(()).unwrap();
                            panic!("chunk {chunk} failed");
                        }
                        // The helper is held in the first chunk it claims.
                        if !held.swap(true, Ordering::SeqCst) {
                            entered_tx.send(()).unwrap();
                            release_rx.lock().unwrap().recv().unwrap();
                            held_finished.store(true, Ordering::SeqCst);
                        }
                    });
                })
            }));
            let payload = result.expect_err("the chunk's panic reaches the caller");
            assert!(
                held_finished.load(Ordering::SeqCst),
                "the panic reached the caller before the held chunk finished"
            );
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("failed"), "{message}");
        });
        // The crew closed on the way out.
        assert_eq!(width(), 1);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller() {
        let caller = thread::current().id();
        let (entered_tx, entered_rx) = mpsc::channel();
        let entered_rx = Mutex::new(entered_rx);
        let waited = AtomicBool::new(false);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            with_crew(2, || {
                run(4, &mut Scratch::new(), &|_, _| {
                    if thread::current().id() != caller {
                        entered_tx.send(()).unwrap();
                        panic!("helper chunk");
                    }
                    // The caller's first chunk waits until the helper has
                    // claimed one.
                    if !waited.swap(true, Ordering::SeqCst) {
                        entered_rx.lock().unwrap().recv().unwrap();
                    }
                });
            })
        }));
        let payload = result.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper chunk"));
    }

    #[test]
    fn ranges_tile_the_units_at_the_alignment() {
        for units in [0usize, 1, 5, 63, 64, 65, 200] {
            for align in [1usize, 4, 64] {
                for chunks in 1..=5 {
                    let mut next = 0;
                    for c in 0..chunks {
                        let r = range(units, align, chunks, c);
                        assert_eq!(r.start, next);
                        assert!(r.start.is_multiple_of(align) || r.start == units);
                        next = r.end;
                    }
                    assert_eq!(next, units);
                }
            }
        }
    }
}
