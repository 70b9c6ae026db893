//! `bench-baseline`: measures the parallel runtime against the same
//! workloads at one thread, and writes the comparison as machine-readable
//! JSON (the file committed as `BENCH_parallel.json`).
//!
//! ```text
//! bench-baseline                        # compare 1 vs available-cores
//! bench-baseline --threads 4            # compare 1 vs 4
//! bench-baseline --out BENCH_parallel.json
//! bench-baseline --quick                # fewer reps (CI smoke)
//! bench-baseline --kernels              # kernel matrix -> BENCH_kernels.json
//! bench-baseline --kernels --reorder    # degree-order fixtures first
//! bench-baseline --solvers              # quality/time matrix -> BENCH_solvers.json
//! ```
//!
//! The pool size is fixed per process, so the binary re-executes itself
//! (`--measure`, an internal flag) once per thread count with
//! `RAYON_NUM_THREADS` set, and the parent merges the two runs. Each
//! target reports a checksum alongside its timing; the parent refuses to
//! write output if any checksum differs between the one-thread and
//! N-thread legs — the speedup table is only meaningful for bit-identical
//! results.
//!
//! `--kernels` switches to the kernel-level matrix (the file committed as
//! `BENCH_kernels.json`): per-kernel ns/op for the scalar (CSR-walk) and
//! bitset (word-parallel) domination kernels at 1/2/4/8 threads, with the
//! same refuse-on-checksum-drift gate applied across every
//! (variant, thread-count) cell. Fixtures and sets are fixed regardless
//! of `--quick` (which only lowers repetitions), so checksums are
//! comparable between quick CI runs and the committed artifact.
//! `--reorder` first relabels both fixtures by descending degree
//! (`Graph::degree_ordered`) to measure locality effects; it changes node
//! ids and therefore checksums, so the committed artifact keeps it off.
//!
//! `--solvers` switches to the solver quality-vs-time matrix (the file
//! committed as `BENCH_solvers.json`): per-solver lifetime, ns/solve,
//! and a schedule checksum for every registry solver on two fixed
//! instances, measured at 1 and 4 rayon threads with the same
//! refuse-on-drift gate — a pass proves every solver (including the
//! racing `portfolio`) returns bit-identical schedules at both pool
//! sizes. The harness additionally refuses to write output if any
//! anytime solver's lifetime falls below the greedy baseline on any
//! instance (their structural floor). Instances are fixed regardless of
//! `--quick`, so checksums are comparable between CI runs and the
//! committed artifact.

use domatic_bench::{gnp_fixture, rgg_fixture};
use domatic_core::stochastic::best_of;
use domatic_core::uniform::{uniform_schedule, UniformParams};
use domatic_graph::domination::{greedy_dominating_set, is_k_dominating_set_par};
use domatic_graph::NodeSet;
use domatic_schedule::{longest_valid_prefix, Batteries};
use domatic_telemetry::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Static `(name, kind)` descriptions of every target, usable without
/// constructing the graph fixtures — the merge step only needs these
/// strings to label JSON rows. `targets()` draws its names from here so
/// the two can't drift apart.
const TARGET_KINDS: &[(&str, &str)] = &[
    (
        "graph.is_k_dominating_set_par",
        "parallel short-circuit all over node chunks",
    ),
    (
        "core.best_uniform",
        "parallel best-of-R restarts (map + ordered reduce)",
    ),
    (
        "graph.greedy_dominating_set",
        "sequential tournament-tree argmax",
    ),
];

/// One measurable workload: returns a determinism checksum; the harness
/// times it.
struct Target {
    name: &'static str,
    run: Box<dyn Fn() -> u64>,
    /// Timed repetitions (the fastest is reported, standard practice for
    /// ns/op on a noisy machine).
    reps: u32,
}

fn targets(quick: bool) -> Vec<Target> {
    let scale = if quick { 1 } else { 4 };
    let n_check = 30_000 * scale;
    let n_sched = 400 * scale;
    let trials = if quick { 8 } else { 16 };
    let check_graph = rgg_fixture(n_check);
    let check_set = NodeSet::from_iter(n_check, (0..n_check as u32).filter(|v| v % 3 != 2));
    let sched_graph = gnp_fixture(n_sched);
    let greedy_graph = rgg_fixture(n_check / 2);
    vec![
        Target {
            name: TARGET_KINDS[0].0,
            run: Box::new(move || u64::from(is_k_dominating_set_par(&check_graph, &check_set, 1))),
            reps: if quick { 5 } else { 20 },
        },
        Target {
            name: TARGET_KINDS[1].0,
            run: Box::new(move || {
                // The exact composition the removed `best_uniform` wrapper
                // performed, so the committed checksum series stays
                // comparable across the Solver-API migration.
                let batteries = Batteries::uniform(sched_graph.n(), 2);
                let (s, seed) = best_of(trials, 0, |seed| {
                    let (raw, _) =
                        uniform_schedule(&sched_graph, 2, &UniformParams { c: 3.0, seed });
                    longest_valid_prefix(&sched_graph, &batteries, &raw, 1)
                });
                s.lifetime().wrapping_mul(1_000_003).wrapping_add(seed)
            }),
            reps: if quick { 3 } else { 5 },
        },
        Target {
            name: TARGET_KINDS[2].0,
            run: Box::new(move || {
                let alive = NodeSet::full(greedy_graph.n());
                greedy_dominating_set(&greedy_graph, &alive).map_or(0, |ds| ds.len() as u64)
            }),
            reps: if quick { 3 } else { 10 },
        },
    ]
}

/// Thread counts of the kernel matrix columns.
const KERNEL_THREADS: &[usize] = &[1, 2, 4, 8];

/// Static `(name, fixture, kind)` rows of the kernel matrix, usable
/// without constructing fixtures (the merge step labels JSON rows from
/// here; `kernel_targets()` draws its names from the same table).
const KERNEL_KINDS: &[(&str, &str, &str)] = &[
    (
        "dominator_count.sweep",
        "gnp_n10k_d600",
        "full |N+(v) ∩ S| count over every node, no early exit",
    ),
    (
        "is_k_dominating_set.k1",
        "gnp_n10k_d600",
        "early-exit k-domination check, k=1, 4% set",
    ),
    (
        "is_k_dominating_set.k2",
        "gnp_n10k_d600",
        "early-exit k-domination check, k=2, 4% set",
    ),
    (
        "is_k_dominating_set.k4",
        "gnp_n10k_d600",
        "early-exit k-domination check, k=4, 4% set",
    ),
    (
        "is_k_dominating_set.k1.sparse",
        "gnp_n10k_d60",
        "below the density crossover: 157-word rows vs ~61-probe walks — scalar wins, which is why the auto dispatch gates on density",
    ),
    (
        "uncovered_nodes.k4",
        "gnp_n10k_d600",
        "filter collecting every under-dominated node (full scan)",
    ),
    (
        "greedy_dominating_set",
        "gnp_n10k_d60",
        "tournament-tree greedy; coverage updates are the kernel, and at degree 60 the 157-word row scan and the ~61-neighbor walk roughly break even",
    ),
    (
        "d_hop.k1.d2",
        "gnp_n10k_d60",
        "2-hop domination: per-node bounded BFS (scalar) vs two whole-set dilations (bitset) — the win is algorithmic",
    ),
    (
        "d_hop.k2.d2",
        "gnp_n10k_d60",
        "2-hop 2-domination: bounded BFS counts both sides; the non-scalar column only adds rayon dispatch",
    ),
];

/// One kernel matrix row: a scalar and a bitset closure that must return
/// identical checksums.
struct Kernel {
    name: &'static str,
    scalar: Box<dyn Fn() -> u64>,
    bitset: Box<dyn Fn() -> u64>,
    reps: u32,
}

/// FNV-1a fold of a u64 stream — strong checksums for set-valued results.
fn fnv_fold(items: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in items {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn kernel_targets(quick: bool, reorder: bool) -> Vec<Kernel> {
    use domatic_graph::domination::{
        dominator_count_scalar, greedy_dominating_set_bitset, greedy_dominating_set_scalar,
        is_d_hop_k_dominating_set, is_d_hop_k_dominating_set_scalar, is_k_dominating_set_bitset,
        is_k_dominating_set_scalar, uncovered_nodes, uncovered_nodes_scalar,
    };
    use std::rc::Rc;

    let n = 10_000usize;
    let mut sparse_g = domatic_bench::gnp_fixture(n); // avg degree ~60
    let mut dense_g = domatic_bench::gnp_dense_fixture(n); // avg degree ~600
    if reorder {
        sparse_g = sparse_g.degree_ordered().0;
        dense_g = dense_g.degree_ordered().0;
    }
    // Pre-warm the cached rows so the timed closures measure scans, not
    // the one-time build (a real cache in production use too).
    sparse_g.neighborhood_bits().expect("10k fits the budget");
    dense_g.neighborhood_bits().expect("10k fits the budget");
    let sparse_g = Rc::new(sparse_g);
    let dense_g = Rc::new(dense_g);

    // Formula sets (independent of node relabeling semantics — they are
    // simply re-interpreted on the reordered ids, identically for every
    // variant and thread count).
    let pct4 = Rc::new(NodeSet::from_iter(n, (0..n as u32).filter(|v| v % 25 == 0)));
    let third = Rc::new(NodeSet::from_iter(n, (0..n as u32).filter(|v| v % 3 == 0)));
    let seeds = Rc::new(NodeSet::from_iter(n, (0..n as u32).filter(|v| v % 97 == 0)));

    let heavy_reps = if quick { 1 } else { 3 };
    let light_reps = if quick { 3 } else { 8 };
    let mut kernels = Vec::new();

    {
        let (g, s) = (dense_g.clone(), pct4.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[0].0,
            scalar: Box::new(move || {
                fnv_fold((0..g.n() as u32).map(|v| dominator_count_scalar(&g, &s, v) as u64))
            }),
            bitset: Box::new(move || {
                let b = g2.neighborhood_bits().expect("pre-warmed");
                fnv_fold((0..g2.n() as u32).map(|v| b.dominator_count(&s2, v) as u64))
            }),
            reps: light_reps,
        });
    }
    for (i, k) in [(1usize, 1usize), (2, 2), (3, 4)] {
        let (g, s) = (dense_g.clone(), pct4.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[i].0,
            scalar: Box::new(move || u64::from(is_k_dominating_set_scalar(&g, &s, k))),
            bitset: Box::new(move || u64::from(is_k_dominating_set_bitset(&g2, &s2, k))),
            reps: light_reps,
        });
    }
    {
        let (g, s) = (sparse_g.clone(), third.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[4].0,
            scalar: Box::new(move || u64::from(is_k_dominating_set_scalar(&g, &s, 1))),
            bitset: Box::new(move || u64::from(is_k_dominating_set_bitset(&g2, &s2, 1))),
            reps: light_reps,
        });
    }
    {
        let (g, s) = (dense_g.clone(), seeds.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[5].0,
            scalar: Box::new(move || {
                let u = uncovered_nodes_scalar(&g, &s, 4);
                fnv_fold(std::iter::once(u.len() as u64).chain(u.iter().map(|&v| u64::from(v))))
            }),
            bitset: Box::new(move || {
                let u = uncovered_nodes(&g2, &s2, 4);
                fnv_fold(std::iter::once(u.len() as u64).chain(u.iter().map(|&v| u64::from(v))))
            }),
            reps: light_reps,
        });
    }
    {
        let g = sparse_g.clone();
        let g2 = g.clone();
        kernels.push(Kernel {
            name: KERNEL_KINDS[6].0,
            scalar: Box::new(move || {
                let alive = NodeSet::full(g.n());
                let ds = greedy_dominating_set_scalar(&g, &alive).expect("full set dominates");
                fnv_fold(ds.iter().map(u64::from))
            }),
            bitset: Box::new(move || {
                let alive = NodeSet::full(g2.n());
                let ds = greedy_dominating_set_bitset(&g2, &alive).expect("full set dominates");
                fnv_fold(ds.iter().map(u64::from))
            }),
            reps: heavy_reps,
        });
    }
    {
        let (g, s) = (sparse_g.clone(), seeds.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[7].0,
            scalar: Box::new(move || u64::from(is_d_hop_k_dominating_set_scalar(&g, &s, 1, 2))),
            bitset: Box::new(move || {
                let b = g2.neighborhood_bits().expect("pre-warmed");
                let mut cover = (*s2).clone();
                for _ in 0..2 {
                    cover = b.dilate(&cover);
                }
                u64::from(cover.len() == g2.n())
            }),
            reps: heavy_reps,
        });
    }
    {
        let (g, s) = (sparse_g.clone(), seeds.clone());
        let (g2, s2) = (g.clone(), s.clone());
        kernels.push(Kernel {
            name: KERNEL_KINDS[8].0,
            scalar: Box::new(move || u64::from(is_d_hop_k_dominating_set_scalar(&g, &s, 2, 2))),
            bitset: Box::new(move || u64::from(is_d_hop_k_dominating_set(&g2, &s2, 2, 2))),
            reps: heavy_reps,
        });
    }
    kernels
}

/// Thread counts of the solver matrix legs: the racing portfolio and
/// the best-of-R restarts must be bit-identical at both.
const SOLVER_THREADS: &[usize] = &[1, 4];

/// Registry solvers in the matrix, in presentation order.
const SOLVER_NAMES: &[&str] = &["greedy", "uniform", "general", "tabu", "sa", "portfolio"];

/// Anytime solvers whose lifetime may never fall below `greedy` (they
/// seed from, or race against, the greedy schedule).
const ANYTIME_SOLVERS: &[&str] = &["tabu", "sa", "portfolio"];

/// The solver matrix instances: `(label, graph, batteries)`. Fixed
/// regardless of `--quick` so checksums stay comparable.
fn solver_instances() -> Vec<(&'static str, domatic_graph::Graph, Batteries)> {
    let gnp = domatic_bench::gnp_fixture(240);
    let rgg = rgg_fixture(200);
    let uniform = Batteries::uniform(gnp.n(), 3);
    let mixed = domatic_bench::battery_fixture(rgg.n());
    vec![
        ("gnp_n240_b3", gnp, uniform),
        ("rgg_n200_mixed", rgg, mixed),
    ]
}

/// Order- and content-sensitive checksum of a schedule: folds every
/// slot's duration and member list, so two schedules collide only if
/// they are slot-for-slot identical.
fn schedule_checksum(s: &domatic_schedule::Schedule) -> u64 {
    fnv_fold(s.entries().iter().flat_map(|e| {
        std::iter::once(e.duration)
            .chain(std::iter::once(e.set.len() as u64))
            .chain(e.set.iter().map(u64::from))
    }))
}

/// Child mode for `--solvers`: run every registry solver on every
/// instance under the inherited pool, print
/// `solver<TAB>instance<TAB>name<TAB>ns<TAB>lifetime<TAB>checksum`.
fn measure_solvers(quick: bool) {
    use domatic_core::solver::{make_solver, SolverConfig};
    let reps = if quick { 1 } else { 3 };
    let cfg = SolverConfig::new().seed(3).trials(4);
    for (instance, g, b) in solver_instances() {
        for &name in SOLVER_NAMES {
            let solver = make_solver(name).expect("registry name");
            let mut best_ns = u64::MAX;
            let mut result = None;
            for _ in 0..reps {
                let start = Instant::now();
                // The uniform solver rejects non-uniform batteries by
                // contract; the cell is reported with lifetime 0 /
                // checksum 0 so the legs still compare it.
                let r = solver.schedule(&g, &b, &cfg).ok();
                best_ns = best_ns.min(start.elapsed().as_nanos() as u64);
                result = Some(r);
            }
            let (lifetime, checksum) = match result.flatten() {
                Some(s) => (s.lifetime(), schedule_checksum(&s)),
                None => (0, 0),
            };
            println!("solver\t{instance}\t{name}\t{best_ns}\t{lifetime}\t{checksum}");
        }
    }
}

/// `(instance, solver) -> (ns, lifetime, checksum)` for one leg.
type SolverCells = BTreeMap<(String, String), (u64, u64, u64)>;

/// One solver-matrix leg: re-exec with the pool pinned to `threads`,
/// collect `(instance, solver) -> (ns, lifetime, checksum)`.
fn run_solver_leg(threads: usize, quick: bool) -> SolverCells {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--measure")
        .arg("--solvers")
        .env("RAYON_NUM_THREADS", threads.to_string());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn measurement child");
    if !out.status.success() {
        eprintln!(
            "solver measurement child ({threads} threads) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let mut results = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split('\t');
        if parts.next() != Some("solver") {
            continue;
        }
        let (Some(instance), Some(name), Some(ns), Some(lifetime), Some(sum)) = (
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
            parts.next(),
        ) else {
            continue;
        };
        results.insert(
            (instance.to_string(), name.to_string()),
            (
                ns.parse().expect("ns field"),
                lifetime.parse().expect("lifetime field"),
                sum.parse().expect("checksum field"),
            ),
        );
    }
    results
}

/// Parent mode for `--solvers`: one leg per thread count, checksum gate
/// across every (instance, solver, thread) cell, greedy-floor gate on
/// the anytime solvers, JSON matrix out.
fn run_solver_matrix(out_path: &str, quick: bool) {
    let mut legs: BTreeMap<usize, SolverCells> = BTreeMap::new();
    for &t in SOLVER_THREADS {
        eprintln!("solver leg at {t} thread(s)…");
        legs.insert(t, run_solver_leg(t, quick));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let instances: Vec<&str> = solver_instances().iter().map(|(l, _, _)| *l).collect();
    let mut rows = Vec::new();
    for instance in &instances {
        let cell = |name: &str, t: usize| -> (u64, u64, u64) {
            legs[&t]
                .get(&(instance.to_string(), name.to_string()))
                .copied()
                .unwrap_or_else(|| panic!("solver {name} missing from {t}-thread leg"))
        };
        // Cross-thread determinism gate: lifetime AND checksum must
        // agree at every pool size.
        for &name in SOLVER_NAMES {
            let (_, l1, s1) = cell(name, SOLVER_THREADS[0]);
            for &t in &SOLVER_THREADS[1..] {
                let (_, lt, st) = cell(name, t);
                if (l1, s1) != (lt, st) {
                    eprintln!(
                        "DETERMINISM VIOLATION: {instance}/{name} returned \
                         (lifetime {l1}, checksum {s1}) at {} threads but \
                         (lifetime {lt}, checksum {st}) at {t} — refusing to write output",
                        SOLVER_THREADS[0]
                    );
                    std::process::exit(1);
                }
            }
        }
        // Quality-floor gate: anytime solvers never lose to greedy.
        let greedy_lifetime = cell("greedy", SOLVER_THREADS[0]).1;
        for &name in ANYTIME_SOLVERS {
            let lifetime = cell(name, SOLVER_THREADS[0]).1;
            if lifetime < greedy_lifetime {
                eprintln!(
                    "QUALITY REGRESSION: {instance}/{name} lifetime {lifetime} \
                     below the greedy floor {greedy_lifetime} — refusing to write output"
                );
                std::process::exit(1);
            }
        }
        let mut solver_rows = Vec::new();
        for &name in SOLVER_NAMES {
            let (_, lifetime, checksum) = cell(name, SOLVER_THREADS[0]);
            let ns_cols: Vec<(String, Json)> = SOLVER_THREADS
                .iter()
                .map(|&t| (format!("t{t}"), Json::Int(cell(name, t).0 as i128)))
                .collect();
            eprintln!(
                "  {instance}/{name}: lifetime {lifetime}, {} ns @1t",
                cell(name, 1).0
            );
            solver_rows.push(Json::obj([
                ("checksum".into(), Json::Int(checksum as i128)),
                ("lifetime".into(), Json::Int(lifetime as i128)),
                ("name".into(), Json::Str(name.into())),
                ("ns".into(), Json::obj(ns_cols)),
            ]));
        }
        rows.push(Json::obj([
            ("instance".into(), Json::Str((*instance).into())),
            ("solvers".into(), Json::Arr(solver_rows)),
        ]));
    }
    let record = Json::obj([
        ("bench".into(), Json::Str("solver-matrix".into())),
        ("instances".into(), Json::Arr(rows)),
        (
            "machine".into(),
            Json::obj([
                ("cores".into(), Json::Int(cores as i128)),
                ("os".into(), Json::Str(std::env::consts::OS.into())),
                ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            ]),
        ),
        ("quick".into(), Json::Bool(quick)),
        (
            "threads".into(),
            Json::Arr(
                SOLVER_THREADS
                    .iter()
                    .map(|&t| Json::Int(t as i128))
                    .collect(),
            ),
        ),
    ]);
    let mut f =
        std::fs::File::create(out_path).unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    writeln!(f, "{}", record.render()).expect("write solver matrix");
    eprintln!("wrote {out_path}");
}

/// Child mode for `--kernels`: run both variants of every kernel under
/// the inherited pool, print `kernel<TAB>name<TAB>variant<TAB>ns<TAB>checksum`.
fn measure_kernels(quick: bool, reorder: bool) {
    for k in kernel_targets(quick, reorder) {
        for (variant, run) in [("scalar", &k.scalar), ("bitset", &k.bitset)] {
            let mut best_ns = u64::MAX;
            let mut checksum = 0u64;
            for _ in 0..k.reps {
                let start = Instant::now();
                checksum = run();
                best_ns = best_ns.min(start.elapsed().as_nanos() as u64);
            }
            println!("kernel\t{}\t{variant}\t{best_ns}\t{checksum}", k.name);
        }
    }
}

/// `(name, variant) -> (best ns, checksum)` for one measurement leg.
type LegResults = BTreeMap<(String, String), (u64, u64)>;

/// One kernel-matrix leg: re-exec with the pool pinned to `threads`,
/// collect `(name, variant) -> (ns, checksum)`.
fn run_kernel_leg(threads: usize, quick: bool, reorder: bool) -> LegResults {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--measure")
        .arg("--kernels")
        .env("RAYON_NUM_THREADS", threads.to_string());
    if quick {
        cmd.arg("--quick");
    }
    if reorder {
        cmd.arg("--reorder");
    }
    let out = cmd.output().expect("spawn measurement child");
    if !out.status.success() {
        eprintln!(
            "kernel measurement child ({threads} threads) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let mut results = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split('\t');
        if parts.next() != Some("kernel") {
            continue;
        }
        let (Some(name), Some(variant), Some(ns), Some(sum)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let ns: u64 = ns.parse().expect("ns field");
        let sum: u64 = sum.parse().expect("checksum field");
        results.insert((name.to_string(), variant.to_string()), (ns, sum));
    }
    results
}

/// Parent mode for `--kernels`: one leg per thread count, checksum gate
/// across every (variant, thread) cell, JSON matrix out.
fn run_kernel_matrix(out_path: &str, quick: bool, reorder: bool) {
    let mut legs: BTreeMap<usize, LegResults> = BTreeMap::new();
    for &t in KERNEL_THREADS {
        eprintln!("kernel leg at {t} thread(s)…");
        legs.insert(t, run_kernel_leg(t, quick, reorder));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut rows = Vec::new();
    for &(name, fixture, kind) in KERNEL_KINDS {
        let mut checksum: Option<u64> = None;
        let mut cols: BTreeMap<&str, Vec<(String, Json)>> = BTreeMap::new();
        for variant in ["scalar", "bitset"] {
            for (&t, leg) in &legs {
                let &(ns, sum) = leg
                    .get(&(name.to_string(), variant.to_string()))
                    .unwrap_or_else(|| {
                        panic!("kernel {name}/{variant} missing from {t}-thread leg")
                    });
                match checksum {
                    None => checksum = Some(sum),
                    Some(expect) if expect != sum => {
                        eprintln!(
                            "DETERMINISM VIOLATION: {name} checksum {expect} vs {sum} \
                             ({variant} @ {t} threads) — refusing to write output"
                        );
                        std::process::exit(1);
                    }
                    Some(_) => {}
                }
                cols.entry(variant)
                    .or_default()
                    .push((format!("t{t}"), Json::Int(ns as i128)));
            }
        }
        let ns_at = |variant: &str, t: usize| legs[&t][&(name.to_string(), variant.to_string())].0;
        let speedup = ns_at("scalar", 1) as f64 / ns_at("bitset", 1) as f64;
        eprintln!(
            "  {name} [{fixture}]: scalar {} ns, bitset {} ns @1t ({speedup:.2}x)",
            ns_at("scalar", 1),
            ns_at("bitset", 1)
        );
        rows.push(Json::obj([
            (
                "bitset_ns".into(),
                Json::obj(cols.remove("bitset").expect("bitset column")),
            ),
            (
                "checksum".into(),
                Json::Int(checksum.expect("at least one cell") as i128),
            ),
            ("fixture".into(), Json::Str(fixture.into())),
            ("kind".into(), Json::Str(kind.into())),
            ("name".into(), Json::Str(name.into())),
            (
                "scalar_ns".into(),
                Json::obj(cols.remove("scalar").expect("scalar column")),
            ),
            (
                "speedup_bitset_1t".into(),
                Json::Num((speedup * 100.0).round() / 100.0),
            ),
        ]));
    }
    let record = Json::obj([
        ("bench".into(), Json::Str("kernel-matrix".into())),
        (
            "fixtures".into(),
            Json::obj([
                (
                    "gnp_n10k_d60".into(),
                    Json::obj([
                        ("avg_degree".into(), Json::Int(60)),
                        ("kind".into(), Json::Str("gnp".into())),
                        ("n".into(), Json::Int(10_000)),
                    ]),
                ),
                (
                    "gnp_n10k_d600".into(),
                    Json::obj([
                        ("avg_degree".into(), Json::Int(600)),
                        ("kind".into(), Json::Str("gnp".into())),
                        ("n".into(), Json::Int(10_000)),
                    ]),
                ),
            ]),
        ),
        ("kernels".into(), Json::Arr(rows)),
        (
            "machine".into(),
            Json::obj([
                ("cores".into(), Json::Int(cores as i128)),
                ("os".into(), Json::Str(std::env::consts::OS.into())),
                ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            ]),
        ),
        ("quick".into(), Json::Bool(quick)),
        ("reorder".into(), Json::Bool(reorder)),
        (
            "threads".into(),
            Json::Arr(
                KERNEL_THREADS
                    .iter()
                    .map(|&t| Json::Int(t as i128))
                    .collect(),
            ),
        ),
    ]);
    let mut f =
        std::fs::File::create(out_path).unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    writeln!(f, "{}", record.render()).expect("write kernel matrix");
    eprintln!("wrote {out_path}");
}

/// Child mode: run every target under the pool this process was born
/// with, print `target<TAB>name<TAB>ns<TAB>checksum` lines, exit.
fn measure(quick: bool) {
    for t in targets(quick) {
        let mut best_ns = u64::MAX;
        let mut checksum = 0u64;
        for _ in 0..t.reps {
            let start = Instant::now();
            checksum = (t.run)();
            best_ns = best_ns.min(start.elapsed().as_nanos() as u64);
        }
        println!("target\t{}\t{}\t{}", t.name, best_ns, checksum);
    }
}

/// One measurement leg: re-exec ourselves with the pool pinned to
/// `threads` and collect `name -> (ns, checksum)`.
fn run_leg(threads: usize, quick: bool) -> BTreeMap<String, (u64, u64)> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--measure")
        .env("RAYON_NUM_THREADS", threads.to_string());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn measurement child");
    if !out.status.success() {
        eprintln!(
            "measurement child ({threads} threads) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::process::exit(1);
    }
    let mut results = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.split('\t');
        if parts.next() != Some("target") {
            continue;
        }
        let (Some(name), Some(ns), Some(sum)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let ns: u64 = ns.parse().expect("ns field");
        let sum: u64 = sum.parse().expect("checksum field");
        results.insert(name.to_string(), (ns, sum));
    }
    results
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let kernels = args.iter().any(|a| a == "--kernels");
    let solvers = args.iter().any(|a| a == "--solvers");
    let reorder = args.iter().any(|a| a == "--reorder");
    if args.iter().any(|a| a == "--measure") {
        if kernels {
            measure_kernels(quick, reorder);
        } else if solvers {
            measure_solvers(quick);
        } else {
            measure(quick);
        }
        return;
    }
    let mut out_path: Option<String> = None;
    let mut threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = Some(it.next().expect("--out requires a path").clone()),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .expect("--threads requires a positive integer")
            }
            "--quick" | "--kernels" | "--solvers" | "--reorder" => {}
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: bench-baseline [--threads N] [--out PATH] [--quick] [--kernels] [--solvers] [--reorder]"
                );
                std::process::exit(2);
            }
        }
    }
    if kernels {
        let out = out_path.unwrap_or_else(|| "BENCH_kernels.json".to_string());
        run_kernel_matrix(&out, quick, reorder);
        return;
    }
    if solvers {
        let out = out_path.unwrap_or_else(|| "BENCH_solvers.json".to_string());
        run_solver_matrix(&out, quick);
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_parallel.json".to_string());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("measuring at 1 thread…");
    let base = run_leg(1, quick);
    eprintln!("measuring at {threads} threads…");
    let par = run_leg(threads, quick);

    let mut rows = Vec::new();
    let kinds: BTreeMap<&str, &str> = TARGET_KINDS.iter().copied().collect();
    for (name, &(ns1, sum1)) in &base {
        let &(ns_n, sum_n) = par
            .get(name)
            .unwrap_or_else(|| panic!("target {name} missing from {threads}-thread leg"));
        if sum1 != sum_n {
            eprintln!(
                "DETERMINISM VIOLATION: {name} checksum {sum1} at 1 thread \
                 but {sum_n} at {threads} threads — refusing to write output"
            );
            std::process::exit(1);
        }
        let speedup = ns1 as f64 / ns_n as f64;
        eprintln!("  {name}: {ns1} ns/op @1t, {ns_n} ns/op @{threads}t ({speedup:.2}x)");
        rows.push(Json::obj([
            ("name".into(), Json::Str((*name).clone())),
            (
                "kind".into(),
                Json::Str(kinds.get(name.as_str()).copied().unwrap_or("").into()),
            ),
            ("ns_per_op_1_thread".into(), Json::Int(ns1 as i128)),
            ("ns_per_op_n_threads".into(), Json::Int(ns_n as i128)),
            (
                "speedup".into(),
                Json::Num((speedup * 100.0).round() / 100.0),
            ),
            ("checksum_match".into(), Json::Bool(true)),
            // The raw result checksum: the regression gate compares this
            // across commits (correctness drift), not the timings.
            ("checksum".into(), Json::Int(sum1 as i128)),
        ]));
    }

    let record = Json::obj([
        ("bench".into(), Json::Str("parallel-baseline".into())),
        (
            "machine".into(),
            Json::obj([
                ("cores".into(), Json::Int(cores as i128)),
                ("os".into(), Json::Str(std::env::consts::OS.into())),
                ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
            ]),
        ),
        (
            "threads_compared".into(),
            Json::Arr(vec![Json::Int(1), Json::Int(threads as i128)]),
        ),
        ("quick".into(), Json::Bool(quick)),
        ("targets".into(), Json::Arr(rows)),
    ]);
    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    writeln!(f, "{}", record.render()).expect("write bench record");
    eprintln!("wrote {out_path}");
}
