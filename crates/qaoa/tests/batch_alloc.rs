//! Allocation-count assertions for the compiled and planned energy paths.
//!
//! `CompiledEnergy::energy_batch_in` promises to reuse the caller's
//! [`BatchScratch`] buffers: after a warm-up call, the only allocation a call
//! may make is the returned `Vec<f64>` of energies (plus the tolerance noted
//! below). That is the training hot loop's contract: every point COBYLA asks
//! for is a one-point call, which allocates exactly that `Vec` once warm,
//! and whose first call builds one `2^n` state in the caller's scratch. The
//! scalar reference `energy_flat_in` allocates nothing once warm, and a
//! training session on an evaluator that already has one allocates nothing
//! of `2^n` size. A warm `PlannedEnergy::energy_flat` allocates nothing on
//! a one-thread pool, and on a wider one only the Rayon driver's buffers —
//! as many for twelve cost terms as for forty; and
//! a plan whose compiled structure the evaluator already holds allocates a
//! fraction of a fresh one. A counting global allocator pins those contracts so buffer reuse and
//! per-graph sharing cannot silently regress into per-call, per-term or
//! per-session allocations.

use graphs::Graph;
use qaoa::ansatz::QaoaAnsatz;
use qaoa::energy::EnergyEvaluator;
use qaoa::mixer::Mixer;
use qaoa::{Backend, BatchScratch};
use qcircuit::Gate;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// System allocator wrapper that counts allocations while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// The counters are process-global while `cargo test` runs this file's tests
/// on parallel threads: each test holds this for its whole body so one test's
/// set-up allocations never land in the other's armed window.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set on the thread running a `count_allocs` closure.
    static ARMING: Cell<bool> = const { Cell::new(false) };
    /// Whether this thread was spawned by an armed call, decided at its
    /// first allocation (`None` before it).
    static SPAWNED_ARMED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether an allocation made now on this thread is counted: while armed,
/// the arming thread's are, and so are those of the threads the armed call
/// spawns — the unnamed threads whose first allocation falls inside the
/// window, i.e. the scoped workers of the parallel drivers. libtest's main
/// thread first allocated before any window, and the test threads it
/// starts carry the test's name, so libtest reporting one test while the
/// next is armed stays out of the count.
fn counts_here() -> bool {
    let armed = ARMED.load(Ordering::Relaxed);
    if armed && ARMING.with(Cell::get) {
        return true;
    }
    SPAWNED_ARMED.with(|spawned| match spawned.get() {
        Some(spawned) => armed && spawned,
        None => {
            // A thread that first allocates inside the window has just
            // started, so it has its handle and `current()` does not
            // allocate; should it, the nested call sees `Some(false)`.
            spawned.set(Some(false));
            let armed_child = armed && std::thread::current().name().is_none();
            spawned.set(Some(armed_child));
            armed_child
        }
    })
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counts_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counts_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` with allocation counting armed for this thread and the threads
/// `f` spawns; returns (allocations, bytes).
fn count_allocs<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMING.with(|arming| arming.set(true));
    ARMED.store(true, Ordering::Relaxed);
    let r = f();
    ARMED.store(false, Ordering::Relaxed);
    ARMING.with(|arming| arming.set(false));
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
        r,
    )
}

#[test]
fn energy_batch_in_reuses_scratch_buffers_after_warmup() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Below the rayon threshold so the sweep stays on this thread: counting
    // must see every allocation the evaluation makes.
    let n = 8;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let compiled = eval.compile(&ansatz).unwrap();

    let batch = 8;
    let points: Vec<Vec<f64>> = (0..batch)
        .map(|i| {
            (0..4)
                .map(|j| 0.1 + 0.05 * i as f64 + 0.02 * j as f64)
                .collect()
        })
        .collect();

    let mut scratch = BatchScratch::new();
    // Warm-up: builds the 2^n × tile batch buffer and sizes the staging
    // vectors.
    let warm = compiled.energy_batch_in(&points, &mut scratch).unwrap();

    let (allocs, bytes, result) =
        count_allocs(|| compiled.energy_batch_in(&points, &mut scratch).unwrap());
    assert_eq!(result.len(), batch);
    for (a, b) in warm.iter().zip(&result) {
        assert_eq!(a.to_bits(), b.to_bits(), "warm vs counted run");
    }

    // Budget: the returned energies Vec, plus a small constant for the
    // per-sweep factor staging (distinct phase values per angle, O(batch)
    // each, nowhere near the 2^n state). A regression to per-call state
    // allocation would cost 2^n * 16 bytes per tile and blow both bounds.
    let state_bytes = (1usize << n) * 16; // 2^n Complex64 amplitudes
    assert!(allocs <= 24, "energy_batch_in made {allocs} allocations");
    assert!(
        bytes < state_bytes,
        "energy_batch_in allocated {bytes} bytes (>= one 2^{n} state of {state_bytes})"
    );
}

#[test]
fn warm_one_point_energy_batch_in_allocates_only_its_result() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Two phase passes of different LUTs (the cost layer and a diagonal
    // `rz` mixer gate) stage their factors into buffers the scratch owns.
    let n = 8;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let point = [0.3, -0.2, 0.5, 0.1];
    for mixer in [Mixer::qnas(), Mixer::new(vec![Gate::RZ, Gate::RX]).unwrap()] {
        let compiled = eval.compile(&QaoaAnsatz::new(&graph, 2, mixer)).unwrap();
        let mut scratch = BatchScratch::new();
        let warm = compiled.energy_batch_in(&[point], &mut scratch).unwrap();
        let (allocs, bytes, e) =
            count_allocs(|| compiled.energy_batch_in(&[point], &mut scratch).unwrap());
        assert_eq!(warm[0].to_bits(), e[0].to_bits());
        assert_eq!(
            (allocs, bytes),
            (1, std::mem::size_of::<f64>()),
            "a warm one-point call allocates its result and nothing else"
        );
    }
}

#[test]
fn first_one_point_call_builds_one_state_in_the_callers_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A one-point call runs in the caller's structure-of-arrays buffer at
    // B = 1: one 2^n state (two f64 planes) plus O(n + |E|) staging, and no
    // second, scalar state beside it.
    let n = 10;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let compiled = eval
        .compile(&QaoaAnsatz::new(&graph, 2, Mixer::qnas()))
        .unwrap();
    let mut scratch = BatchScratch::new();
    let (_, bytes, _) =
        count_allocs(|| compiled.energy_batch_in(&[[0.3, -0.2, 0.5, 0.1]], &mut scratch));
    let state_bytes = (1usize << n) * 16;
    assert!(
        bytes >= state_bytes && bytes < state_bytes + state_bytes / 2,
        "first one-point call allocated {bytes} bytes (one 2^{n} state is {state_bytes})"
    );
}

#[test]
fn warm_scalar_energy_flat_in_stays_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The scalar contract, pinned with the same counter: an external-scratch
    // evaluation allocates nothing at all — also when the program has two
    // phase passes of different LUTs (the cost layer and a diagonal `rz`
    // mixer gate), which stage their factors into the one buffer the state
    // owns.
    let n = 8;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let params = [0.3, -0.2, 0.5, 0.1];
    for mixer in [Mixer::qnas(), Mixer::new(vec![Gate::RZ, Gate::RX]).unwrap()] {
        let compiled = eval.compile(&QaoaAnsatz::new(&graph, 2, mixer)).unwrap();
        let mut buf = statevec::StateVector::zero_state(n).unwrap();
        let warm = compiled.energy_flat_in(&params, &mut buf).unwrap();
        let (allocs, _bytes, e) =
            count_allocs(|| compiled.energy_flat_in(&params, &mut buf).unwrap());
        assert_eq!(warm.to_bits(), e.to_bits());
        assert_eq!(allocs, 0, "energy_flat_in allocated after warm-up");
    }
}

#[test]
fn warm_planned_energy_flat_allocates_nothing_per_term() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let params = [0.3, -0.2, 0.5, 0.1];
    // Warm the plan's scratch, then count one more evaluation.
    let warm_count = |eval: &EnergyEvaluator, graph: &Graph| {
        let planned = eval
            .plan(&QaoaAnsatz::new(graph, 2, Mixer::qnas()))
            .unwrap();
        let warm = planned.energy_flat(&params).unwrap();
        let (allocs, _bytes, e) = count_allocs(|| planned.energy_flat(&params).unwrap());
        assert_eq!(warm.to_bits(), e.to_bits());
        allocs
    };
    // 12 and 40 cost terms.
    let graphs = [
        Graph::random_regular(8, 3, 5).unwrap(),
        Graph::random_regular(20, 4, 5).unwrap(),
    ];
    for threads in [1, 2, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let counts: Vec<usize> = graphs
            .iter()
            .map(|graph| {
                let eval = EnergyEvaluator::new(graph, Backend::TensorNetwork);
                pool.install(|| warm_count(&eval, graph))
            })
            .collect();
        assert_eq!(
            counts[0], counts[1],
            "{threads} threads: allocations grow with the term count"
        );
        if threads == 1 {
            assert_eq!(counts[0], 0, "one thread runs inline");
        }
    }
}

#[test]
fn planning_ry_after_rx_on_an_evaluator_allocates_a_fraction_of_the_first_plan() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The compiled structure of a plan — programs, folded constants, the
    // template's rows — names matrices by id: `ry` takes `rx`'s from the
    // evaluator and allocates only its own matrix table, the key and the
    // transients of hashing the template. On the `search_tn` shape that is
    // 1.5 KB when written, against 360 KB for the first plan, transients
    // included.
    let graph = Graph::random_regular(10, 4, 11).unwrap();
    let eval = EnergyEvaluator::new(&graph, Backend::TensorNetwork);
    let plan = |gate: Gate| {
        let ansatz = QaoaAnsatz::new(&graph, 1, Mixer::new(vec![gate]).unwrap());
        count_allocs(|| eval.plan(&ansatz).unwrap())
    };
    let (_, first_bytes, rx) = plan(Gate::RX);
    let (_, second_bytes, ry) = plan(Gate::RY);
    assert!(rx.plan().shares_structure_with(ry.plan()));
    assert!(
        second_bytes < first_bytes / 4 && second_bytes < 4096,
        "second plan allocated {second_bytes} bytes (first: {first_bytes})"
    );
}

#[test]
fn second_session_on_an_evaluator_allocates_nothing_of_state_size() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Everything of size 2^n that a session reads — the problem diagonal and
    // the cost layer's phase LUT — belongs to the graph, not to the session:
    // while one session is alive, the next one on the same evaluator (another
    // candidate mixer) builds neither, and copies neither the evaluator nor
    // the ansatz template.
    let n = 16;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let optimizer = optim::CobylaOptimizer::default();
    let begin = |mixer: Mixer| {
        let ansatz = QaoaAnsatz::new(&graph, 1, mixer);
        count_allocs(|| eval.begin_training(&ansatz, &optimizer, None, 60).unwrap())
    };
    let (_, first_bytes, first) = begin(Mixer::baseline());
    let (_, second_bytes, second) = begin(Mixer::qnas());
    assert!(first.uses_compiled_scratch() && second.uses_compiled_scratch());
    let index_bytes = (1usize << n) * 4; // one u32 LUT index per amplitude
    assert!(
        first_bytes > 3 * index_bytes,
        "first session allocated {first_bytes} bytes: the diagonal and the LUT are missing"
    );
    // 68 KB when written, transients included: the lowering's own op list
    // and term keys. A shared-nothing compile is 860 KB.
    assert!(
        second_bytes < first_bytes / 4 && second_bytes < 80_000,
        "second session allocated {second_bytes} bytes (first: {first_bytes})"
    );
}

#[test]
fn warm_session_rung_adds_no_allocation_per_evaluation() {
    use optim::Resumable;
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One COBYLA rung through a session on warm caller scratch against the
    // same optimizer driven by `resume_until` on the scalar objective it
    // trains to the same bits: the optimizer's own allocations (trace,
    // vertices, trial points) are the same on both sides, so what the
    // session adds must not grow with the budget.
    let n = 8;
    let graph = Graph::connected_erdos_renyi(n, 0.5, 7, 50);
    let eval = EnergyEvaluator::new(&graph, Backend::StateVector);
    let ansatz = QaoaAnsatz::new(&graph, 2, Mixer::qnas());
    let compiled = eval.compile(&ansatz).unwrap();
    let optimizer = optim::CobylaOptimizer::default();
    let state = Mutex::new(statevec::StateVector::zero_state(n).unwrap());
    let objective = |x: &[f64]| {
        -compiled
            .energy_flat_in(x, &mut state.lock().unwrap())
            .unwrap()
    };
    let mut scratch = BatchScratch::new();
    let mut added = Vec::new();
    for budget in [40, 80] {
        let mut session = eval
            .begin_training(&ansatz, &optimizer, None, budget)
            .unwrap();
        let mut reference = optimizer.start(&ansatz.default_initial_flat(), budget);
        // Warm both sides' buffers on a throwaway run.
        let mut warm = eval
            .begin_training(&ansatz, &optimizer, None, budget)
            .unwrap();
        warm.advance_in(&optimizer, budget, Some(&mut scratch))
            .unwrap();
        objective(&ansatz.default_initial_flat());

        let (session_allocs, _, trained) = count_allocs(|| {
            session
                .advance_in(&optimizer, budget, Some(&mut scratch))
                .unwrap()
        });
        let (reference_allocs, _, result) =
            count_allocs(|| optimizer.resume_until(&mut reference, &objective, budget));
        assert_eq!(trained.evaluations, result.evaluations, "budget {budget}");
        assert_eq!(trained.energy.to_bits(), (-result.best_value).to_bits());
        added.push(session_allocs as i64 - reference_allocs as i64);
    }
    assert_eq!(
        added[0], added[1],
        "allocations the session adds over resume_until, at budgets 40 and 80"
    );
}
