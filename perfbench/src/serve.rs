//! The serving workloads: a `TcpFrontend` over a micro-batching
//! `ServeEngine`, driven open-loop at a fixed reference rate and up a
//! fixed rate ladder, with every sampled response checked against
//! `ServeState::respond` on the generation its version names. The traced
//! run replays the same request schedule one layer down at a time: TCP,
//! in-process engine, `ServeState::respond`, then the scoring primitives.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bsl_data::Dataset;
use bsl_linalg::topk::{select_scored_into, TopK};
use bsl_linalg::Matrix;
use bsl_models::{EvalScore, ModelArtifact, ProbeScratch};
use bsl_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use bsl_serve::{
    BatchPolicy, RecommendRequest, Request, Response, ServeEngine, ServeOptions, ServeScratch,
    ServeState, TcpFrontend,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loadgen::{account, poisson_arrivals, run_open_loop, Conns, Planned, Sent};
use crate::stats::{backlog_grows, climb_start, mean, median, percentile, sorted, staircase_next};
use crate::trace::Tracer;
use crate::{Outcome, SETUP_REPS};

/// Which serving workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Recommend-only top-10 against an exact f32 artifact.
    Exact,
    /// Mixed traffic against an int8 + IVF artifact with periodic hot
    /// swaps between two saved generations.
    IvfSwap,
}

/// Users served.
const N_USERS: usize = 4096;
/// Catalogue size: 32k × d64 f32 ≈ 8 MiB, past L2.
const N_ITEMS: usize = 32_768;
/// Embedding width.
const DIM: usize = 64;
/// Latent clusters of the synthetic embeddings.
const N_CLUSTERS: usize = 64;
/// Standard deviation of an item around its cluster centre (centres are
/// unit-variance Gaussians). At this spread a user's exact top-10 still
/// lies in the lists the default `nprobe` probes, so recall@10 is 1 until
/// a change to the index or the probe costs accuracy.
const ITEM_SPREAD: f32 = 1.0;
/// Seen (filtered) items per user.
const SEEN_PER_USER: usize = 20;
/// Items per recommendation.
const K: usize = 10;
/// Candidates per `score_items` request.
const SCORE_ITEMS_N: usize = 16;
/// Pipelined connections the generator drives read traffic over.
const CONNS: usize = 2;
/// Connection index of the deploy channel: `swap_artifact` frames go over
/// a connection of their own, as a deploy tool's would, so a swap loading
/// an artifact never blocks a read connection's pipeline. Its effect on
/// reads is the interference it causes.
const DEPLOY_CONN: usize = CONNS;
/// All connections a phase opens.
const ALL_CONNS: usize = CONNS + 1;
/// Users in the fixed recall sample.
const RECALL_USERS: usize = 256;
/// One in this many responses is checked against `ServeState::respond`.
const CHECK_EVERY: u64 = 8;
/// Hot swaps per second of traffic (`serve-ivf-swap`).
const SWAPS_PER_S: f64 = 1.0;
/// Share of `seconds` one reference window lasts.
const WINDOW_SHARE: f64 = 1.0 / 20.0;
/// Reference-rate windows per run, spread over the run; the latency
/// metrics come from the best of them.
const REFERENCE_WINDOWS: usize = 10;
/// Ratio of successive ladder rungs: fine enough that the rungs on
/// either side of the knee differ by little, while one ladder spans the
/// factor of two by which a shared 2-core host's speed was measured to
/// drift (see `README.md`).
const LADDER_STEP: f64 = 1.06;
/// The first climb of a run goes up this many rungs at a time, to find
/// the knee quickly; later climbs go one rung at a time.
const FIRST_CLIMB_STRIDE: usize = 4;
/// A climb after the first starts this many rungs below the median
/// climb's highest passed rung, so it re-measures the knee instead of
/// the easy rungs.
const CLIMB_BACKOFF: usize = 2;
/// Unmeasured warm-up traffic before the reference phase.
const WARMUP_S: f64 = 0.3;

/// Fixed per-workload load constants, measured on a 2-core x86-64 host
/// (see `README.md`).
struct Load {
    /// The reference rate, below half the capacity at two connections.
    reference_rps: f64,
    /// The rate ladder's lowest and highest rungs: it climbs from one
    /// to the other in steps of [`LADDER_STEP`].
    ladder: (f64, f64),
    /// p99 latency limit for a ladder rung to pass.
    slo_p99_ms: f64,
    /// Share of `seconds` one ladder rung lasts: long enough for about a
    /// thousand requests near the knee, so that p99 has ten beyond it.
    rung_share: f64,
    /// Ladder climbs per run, spread evenly between the reference
    /// windows; `throughput_per_s` is the median of their results.
    climbs: usize,
}

fn load(kind: Kind) -> Load {
    match kind {
        Kind::Exact => Load {
            reference_rps: 500.0,
            ladder: (300.0, 6000.0),
            slo_p99_ms: 50.0,
            rung_share: 1.0 / 15.0,
            climbs: 5,
        },
        Kind::IvfSwap => Load {
            reference_rps: 1500.0,
            ladder: (800.0, 20000.0),
            slo_p99_ms: 50.0,
            rung_share: 1.0 / 30.0,
            climbs: 7,
        },
    }
}

/// The rungs from `lo` to at most `hi`, in rps rounded to whole numbers.
fn rungs((lo, hi): (f64, f64)) -> Vec<f64> {
    (0..).map(|k| (lo * LADDER_STEP.powi(k)).round()).take_while(|&r| r <= hi).collect()
}

/// The generated inputs of one seed.
struct Inputs {
    users: Matrix,
    items_a: Matrix,
    items_b: Matrix,
    seen: Dataset,
}

/// Clustered synthetic embeddings (so that IVF recall means something)
/// and a seen-item mask drawn half from each user's own cluster.
fn generate_inputs(kind: Kind, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E57_BE4C);
    let centres = Matrix::gaussian(N_CLUSTERS, DIM, 1.0, &mut rng);
    let mut items_a = Matrix::gaussian(N_ITEMS, DIM, ITEM_SPREAD, &mut rng);
    let mut by_cluster: Vec<Vec<u32>> = vec![Vec::new(); N_CLUSTERS];
    for i in 0..N_ITEMS {
        let c = rng.gen_range(0..N_CLUSTERS);
        by_cluster[c].push(i as u32);
        for (x, &m) in items_a.row_mut(i).iter_mut().zip(centres.row(c)) {
            *x += m;
        }
    }
    let mut users = Matrix::gaussian(N_USERS, DIM, 0.35, &mut rng);
    let mut pairs = Vec::with_capacity(N_USERS * SEEN_PER_USER);
    let mut mine = Vec::with_capacity(SEEN_PER_USER);
    for u in 0..N_USERS {
        let c = rng.gen_range(0..N_CLUSTERS);
        let w = rng.gen_range(0.6..1.2f32);
        for (x, &m) in users.row_mut(u).iter_mut().zip(centres.row(c)) {
            *x += w * m;
        }
        mine.clear();
        while mine.len() < SEEN_PER_USER {
            let i = if mine.len() % 2 == 0 && !by_cluster[c].is_empty() {
                by_cluster[c][rng.gen_range(0..by_cluster[c].len())]
            } else {
                rng.gen_range(0..N_ITEMS as u32)
            };
            if !mine.contains(&i) {
                mine.push(i);
            }
        }
        pairs.extend(mine.iter().map(|&i| (u as u32, i)));
    }
    let seen = Dataset::from_pairs("perfbench-serve", N_USERS, N_ITEMS, &pairs, &[]);
    // The second generation: the same catalogue after a small update.
    let items_b = if kind == Kind::IvfSwap {
        let mut b = Matrix::gaussian(N_ITEMS, DIM, 0.05, &mut rng);
        for i in 0..N_ITEMS {
            for (x, &a) in b.row_mut(i).iter_mut().zip(items_a.row(i)) {
                *x += a;
            }
        }
        b
    } else {
        Matrix::zeros(0, DIM)
    };
    Inputs { users, items_a, items_b, seen }
}

/// The artifact a generation serves: exact f32, or int8 + IVF at the
/// default `nlist` (format v2).
fn artifact(kind: Kind, users: &Matrix, items: &Matrix) -> ModelArtifact {
    let mut art = ModelArtifact::from_embeddings("MF", users, items, EvalScore::Cosine);
    if kind == Kind::IvfSwap {
        art.build_default_ivf();
        art = art.quantize();
    }
    art
}

/// A running server and what the checks need to know about it.
struct Server {
    engine: Arc<ServeEngine>,
    frontend: TcpFrontend,
    /// The load generator's connections to it.
    conns: std::cell::RefCell<Conns>,
    /// Saved generations: `[A]` or `[A, B]`.
    paths: Vec<PathBuf>,
}

impl Server {
    /// Swaps generation A back in (the engine replay and the TCP replays
    /// each start from it).
    fn restore_generation_a(&self) {
        let tenant = ServeEngine::DEFAULT_TENANT;
        let art = ModelArtifact::load(&self.paths[0]).expect("reloading generation A");
        let current = self.engine.registry().get(tenant).expect("tenant").load();
        let _ = self.engine.swap(tenant, ServeState::with_seen_from(art, &current));
    }

    fn stop(mut self) {
        drop(self.conns);
        self.frontend.stop();
        self.engine.shutdown();
    }
}

/// One set-up: generate the inputs, build and save the artifact
/// generation(s), load generation A and start the server on it.
fn set_up(kind: Kind, seed: u64) -> (Inputs, Server) {
    let inputs = generate_inputs(kind, seed);
    let dir = crate::out_dir();
    std::fs::create_dir_all(&dir).expect("creating the benchmark's output directory");
    let tag = if kind == Kind::Exact { "exact" } else { "ivf" };
    let mut paths = vec![dir.join(format!("serve-{tag}-seed{seed}-genA.bsla"))];
    artifact(kind, &inputs.users, &inputs.items_a).save(&paths[0]).expect("saving generation A");
    if kind == Kind::IvfSwap {
        paths.push(dir.join(format!("serve-{tag}-seed{seed}-genB.bsla")));
        artifact(kind, &inputs.users, &inputs.items_b)
            .save(&paths[1])
            .expect("saving generation B");
    }
    let loaded = ModelArtifact::load(&paths[0]).expect("loading generation A");
    let state = ServeState::with_seen(loaded, &inputs.seen);
    let engine = ServeEngine::single_tenant(state, BatchPolicy::default());
    let frontend =
        TcpFrontend::start(Arc::clone(&engine), "127.0.0.1:0").expect("starting the TCP front end");
    let conns = Conns::open(frontend.local_addr(), ALL_CONNS).expect("connecting to the server");
    (inputs, Server { engine, frontend, conns: std::cell::RefCell::new(conns), paths })
}

/// Builds a phase's plan: Poisson arrivals at `rate` over `secs` from
/// `start_ns`, the workload's op mix, connections round-robin; swaps (on
/// `serve-ivf-swap`) every `1 / SWAPS_PER_S` seconds alternating between
/// the saved generations. `swaps` counts swaps planned so far (it fixes
/// which generation the next one deploys).
fn plan_phase(
    kind: Kind,
    rng: &mut StdRng,
    rate: f64,
    start_ns: u64,
    secs: f64,
    paths: &[PathBuf],
    swaps: &mut usize,
) -> Vec<Planned> {
    let mut plan: Vec<Planned> = poisson_arrivals(rng, rate, start_ns, secs)
        .into_iter()
        .enumerate()
        .map(|(i, due_ns)| {
            let user = rng.gen_range(0..N_USERS as u32);
            let roll: f64 = rng.gen_range(0.0..1.0);
            let req = if kind == Kind::Exact || roll < 0.90 {
                Request::Recommend {
                    tenant: ServeEngine::DEFAULT_TENANT.into(),
                    req: RecommendRequest::new(user, K),
                }
            } else if roll < 0.98 {
                let items = (0..SCORE_ITEMS_N).map(|_| rng.gen_range(0..N_ITEMS as u32)).collect();
                Request::ScoreItems { tenant: ServeEngine::DEFAULT_TENANT.into(), user, items }
            } else {
                Request::Stats
            };
            Planned { due_ns, conn: i % CONNS, req }
        })
        .collect();
    if kind == Kind::IvfSwap {
        let mut t = start_ns as f64 + 0.5e9 / SWAPS_PER_S;
        while t < start_ns as f64 + secs * 1e9 {
            // Generation A serves as version 1; swap s deploys B when s is
            // even and A when it is odd, so version v is A iff v is odd.
            let path = &paths[if swaps.is_multiple_of(2) { 1 } else { 0 }];
            plan.push(Planned {
                due_ns: t as u64,
                conn: DEPLOY_CONN,
                req: Request::SwapArtifact {
                    tenant: ServeEngine::DEFAULT_TENANT.into(),
                    path: path.to_string_lossy().into_owned(),
                },
            });
            *swaps += 1;
            t += 1e9 / SWAPS_PER_S;
        }
        plan.sort_by_key(|p| p.due_ns);
    }
    plan
}

/// Reference states for checking responses: index 0 answers odd
/// versions (generation A), index 1 even ones (generation B).
struct Reference {
    states: Vec<ServeState>,
}

impl Reference {
    fn load(paths: &[PathBuf], seen: &Dataset) -> Self {
        let states = paths
            .iter()
            .map(|p| {
                ServeState::with_seen(ModelArtifact::load(p).expect("reloading a generation"), seen)
            })
            .collect();
        Self { states }
    }

    fn for_version(&self, version: u64) -> &ServeState {
        &self.states[if version % 2 == 1 { 0 } else { 1 }]
    }
}

/// Checked results of one phase.
#[derive(Default)]
struct PhaseResult {
    /// Latencies (ms from due) of answered read requests.
    latency_ms: Vec<f64>,
    /// Latencies of recommend requests by plan index (engine/TCP pairing).
    rec_latency_ms: Vec<(usize, f64)>,
    lag_ms: Vec<f64>,
    sent: usize,
    completed: usize,
    failed: usize,
    checked: usize,
    problems: Vec<String>,
    /// (due, sent, done) times in seconds for the backlog detector.
    sent_s: Vec<f64>,
    done_s: Vec<f64>,
}

/// Decodes and checks every response of a phase: no error frames, no
/// missing answers, versions monotone per connection, and a seeded
/// sample bit-identical to the reference state of the version named.
fn check_phase(plan: &[Planned], sent: &[Sent], reference: &Reference, seed: u64) -> PhaseResult {
    let due: Vec<u64> = plan.iter().map(|p| p.due_ns).collect();
    let acct = account(&due, sent);
    let mut r = PhaseResult { lag_ms: acct.lag_ms, sent: plan.len(), ..Default::default() };
    let mut last_version = [0u64; ALL_CONNS];
    let mut scratch = ServeScratch::new();
    for (i, (p, s)) in plan.iter().zip(sent).enumerate() {
        r.sent_s.push(s.sent_ns as f64 * 1e-9);
        let (Some(done), Some(latency), Some(payload)) =
            (s.done_ns, acct.latency_ms[i], &s.payload)
        else {
            r.failed += 1;
            if r.problems.len() < 5 {
                r.problems.push(format!("request {i} was never answered"));
            }
            continue;
        };
        r.completed += 1;
        r.done_s.push(done as f64 * 1e-9);
        let resp = match decode_response(payload) {
            Ok(resp) => resp,
            Err(e) => {
                r.failed += 1;
                r.problems.push(format!("request {i}: undecodable response: {e}"));
                continue;
            }
        };
        let version = match &resp {
            Response::Recs { version, .. }
            | Response::Scores { version, .. }
            | Response::Swapped { version } => Some(*version),
            _ => None,
        };
        if let Some(v) = version {
            if v < last_version[p.conn] {
                r.failed += 1;
                r.problems.push(format!(
                    "request {i}: version {v} after {} on connection {}",
                    last_version[p.conn], p.conn
                ));
            }
            last_version[p.conn] = v;
        }
        let sampled =
            (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(CHECK_EVERY);
        let ok = match (&p.req, &resp) {
            (Request::Recommend { req, .. }, Response::Recs { version, recs }) => {
                r.latency_ms.push(latency);
                r.rec_latency_ms.push((i, latency));
                !sampled || {
                    r.checked += 1;
                    let want = reference.for_version(*version).respond(req, &mut scratch);
                    want.is_ok_and(|w| {
                        w.recs.len() == recs.len()
                            && w.recs.iter().zip(recs).all(|(a, b)| {
                                a.item == b.item && a.score.to_bits() == b.score.to_bits()
                            })
                    })
                }
            }
            (Request::ScoreItems { user, items, .. }, Response::Scores { version, scores }) => {
                r.latency_ms.push(latency);
                !sampled || {
                    r.checked += 1;
                    let mut want = Vec::new();
                    reference
                        .for_version(*version)
                        .score_items_into(*user, items, &mut want)
                        .is_ok()
                        && want.len() == scores.len()
                        && want.iter().zip(scores).all(|(a, b)| a.to_bits() == b.to_bits())
                }
            }
            (Request::Stats, Response::Stats(text)) => {
                r.latency_ms.push(latency);
                text.starts_with("requests=")
            }
            (Request::SwapArtifact { .. }, Response::Swapped { .. }) => true,
            _ => false,
        };
        if !ok {
            r.failed += 1;
            if r.problems.len() < 5 {
                r.problems.push(format!("request {i}: wrong or error response {resp:?}"));
            }
        }
    }
    r
}

/// Runs a phase and checks it.
fn phase(
    server: &Server,
    plan: &[Planned],
    origin: Instant,
    reference: &Reference,
    seed: u64,
) -> PhaseResult {
    match run_open_loop(&mut server.conns.borrow_mut(), plan, origin, Duration::from_secs(3)) {
        Ok(sent) => check_phase(plan, &sent, reference, seed),
        Err(e) => PhaseResult {
            sent: plan.len(),
            failed: plan.len(),
            problems: vec![format!("connecting to the server: {e}")],
            ..Default::default()
        },
    }
}

/// Folds a phase's checks into the outcome.
fn fold(o: &mut Outcome, label: &str, r: &PhaseResult) {
    o.attempted += r.sent as u64;
    o.failed += r.failed as u64;
    o.check(
        r.failed == 0,
        format!(
            "{label}: {} sent, {} answered, {} failed, {} sampled responses bit-identical to \
             ServeState::respond",
            r.sent, r.completed, r.failed, r.checked
        ),
    );
    for p in &r.problems {
        o.note(format!("{label}: {p}"));
    }
}

fn now_ns(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Top-10 recall of the served path against the exact path on
/// generation A, over a fixed seeded user sample.
fn recall_at_10(state: &ServeState, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00EC_A110);
    let mut scratch = ServeScratch::new();
    let mut sum = 0.0;
    for _ in 0..RECALL_USERS {
        let user = rng.gen_range(0..N_USERS as u32);
        let served = state.respond(&RecommendRequest::new(user, K), &mut scratch);
        let exact = state
            .respond(&RecommendRequest { user, k: K, opts: ServeOptions::exact() }, &mut scratch);
        let (Ok(served), Ok(exact)) = (served, exact) else { continue };
        let hits =
            served.recs.iter().filter(|r| exact.recs.iter().any(|e| e.item == r.item)).count();
        sum += hits as f64 / exact.recs.len().max(1) as f64;
    }
    sum / RECALL_USERS as f64
}

/// Runs a serving workload.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let ld = load(kind);
    let mut o = Outcome::new(BatchPolicy::default().workers);

    let reps = if traced { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        if let Some((_, s)) = last.take() {
            Server::stop(s);
        }
        let t0 = Instant::now();
        let up = set_up(kind, seed);
        setup.push(t0.elapsed().as_secs_f64());
        last = Some(up);
    }
    let (inputs, server) = last.expect("at least one set-up");
    o.set("setup_s", median(&setup));
    let reference = Reference::load(&server.paths, &inputs.seen);
    o.set("quality", recall_at_10(&reference.states[0], seed));
    o.note(format!(
        "{} users x {} items x d{}, {} artifact, reference {} rps, p99 limit {} ms",
        N_USERS,
        N_ITEMS,
        DIM,
        if kind == Kind::Exact { "exact f32" } else { "int8 + IVF (format v2)" },
        ld.reference_rps,
        ld.slo_p99_ms
    ));

    let origin = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EAF_F1C5);
    let mut swaps = 0usize;
    let warm = plan_phase(
        kind,
        &mut rng,
        ld.reference_rps,
        now_ns(origin) + 5_000_000,
        WARMUP_S,
        &server.paths,
        &mut swaps,
    );
    let r = phase(&server, &warm, origin, &reference, seed);
    fold(&mut o, "warm-up", &r);

    if traced {
        let ref_start = now_ns(origin) + 5_000_000;
        let ref_plan = plan_phase(
            kind,
            &mut rng,
            ld.reference_rps,
            ref_start,
            seconds * WINDOW_SHARE * REFERENCE_WINDOWS as f64,
            &server.paths,
            &mut swaps,
        );
        run_traced(&mut o, kind, &server, &ref_plan, origin, &reference, seed);
        server.stop();
        return o;
    }

    // Reference windows and ladder climbs alternate, spread over the
    // whole run, so that host interference, which comes and goes, rarely
    // hits all of them.
    let win_secs = seconds * WINDOW_SHARE;
    let rung_secs = seconds * ld.rung_share;
    let mut ladder = Ladder { rungs: rungs(ld.ladder), ..Ladder::default() };
    let mut p50s: Vec<(f64, usize)> = Vec::new();
    for w in 0..REFERENCE_WINDOWS {
        let start = now_ns(origin) + 5_000_000;
        let plan = plan_phase(
            kind,
            &mut rng,
            ld.reference_rps,
            start,
            win_secs,
            &server.paths,
            &mut swaps,
        );
        let r = phase(&server, &plan, origin, &reference, seed);
        fold(&mut o, &format!("reference window {w}"), &r);
        let lat = sorted(r.latency_ms.clone());
        p50s.push((percentile(&lat, 50.0).unwrap_or(0.0), lat.len()));
        o.note(format!(
            "reference window {w}: {} rps for {win_secs:.1} s, {} answered, p50 {:.3} ms, p90 {:.3} ms, \
             p99 {:.3} ms, generator lag p99 {:.3} ms",
            ld.reference_rps,
            lat.len(),
            p50s[w].0,
            percentile(&lat, 90.0).unwrap_or(0.0),
            percentile(&lat, 99.0).unwrap_or(0.0),
            percentile(&sorted(r.lag_ms.clone()), 99.0).unwrap_or(0.0)
        ));
        if w == 1 {
            // Peak memory through set-up and the first reference windows,
            // before any climb fills queues and socket buffers to depths
            // that vary from run to run.
            o.set("peak_rss_mib", crate::peak_rss_mib());
        }
        while ladder.climbs < ld.climbs * (w + 1) / REFERENCE_WINDOWS {
            ladder.climb(
                &mut o, kind, &ld, &server, &mut rng, origin, &reference, seed, rung_secs,
                &mut swaps,
            );
        }
    }
    // The best window: host interference only ever adds latency, so the
    // quietest window is the steadiest estimate of the program's own.
    let (p50, n) = p50s.into_iter().fold((f64::INFINITY, 0), |b, x| if x.0 < b.0 { x } else { b });
    o.latency_sample = n;
    o.set("latency_p50_ms", p50);
    o.set("throughput_per_s", ladder.score());
    server.stop();
    o
}

/// The rate ladder's results: per climb, the highest rung it passed and
/// that rung's achieved completion rate.
#[derive(Default)]
struct Ladder {
    rungs: Vec<f64>,
    climbs: usize,
    results: Vec<(usize, f64)>,
}

impl Ladder {
    /// `max_rps_under_slo`: the median climb's achieved rate (0 when no
    /// rung ever passed).
    fn score(&self) -> f64 {
        let rates: Vec<f64> = self.results.iter().map(|r| r.1).collect();
        if rates.is_empty() {
            0.0
        } else {
            median(&rates)
        }
    }

    /// Runs one climb, a staircase: the first climb starts at the bottom
    /// rung and goes up [`FIRST_CLIMB_STRIDE`] rungs at a time, a later
    /// one starts [`CLIMB_BACKOFF`] rungs below the median climb's
    /// highest passed rung and goes up one at a time; a climb goes up
    /// while rungs pass and ends at the first failing one, or, if its
    /// first rung fails, goes down until one passes. A rung passes with no failed request, p99 within the limit
    /// and a steady backlog. A host stall can fail any rung, and a lucky
    /// rung can pass just above the knee; the median over climbs is
    /// robust to both.
    #[allow(clippy::too_many_arguments)]
    fn climb(
        &mut self,
        o: &mut Outcome,
        kind: Kind,
        ld: &Load,
        server: &Server,
        rng: &mut StdRng,
        origin: Instant,
        reference: &Reference,
        seed: u64,
        rung_secs: f64,
        swaps: &mut usize,
    ) {
        self.climbs += 1;
        let passed: Vec<usize> = self.results.iter().map(|r| r.0).collect();
        let mut next = Some(climb_start(&passed, CLIMB_BACKOFF));
        let stride = if passed.is_empty() { FIRST_CLIMB_STRIDE } else { 1 };
        let (mut best, mut prev) = (None, None);
        while let Some(idx) = next {
            let rate = self.rungs[idx];
            let start = now_ns(origin) + 5_000_000;
            let plan = plan_phase(kind, rng, rate, start, rung_secs, &server.paths, swaps);
            let r = phase(server, &plan, origin, reference, seed);
            fold(o, &format!("rung {rate} rps"), &r);
            let p99 = percentile(&sorted(r.latency_ms.clone()), 99.0).unwrap_or(f64::INFINITY);
            let (start_s, end_s) = (start as f64 * 1e-9, start as f64 * 1e-9 + rung_secs);
            let grows = backlog_grows(&r.sent_s, &r.done_s, start_s, end_s, 8.0, 0.05);
            let pass = r.failed == 0 && p99 <= ld.slo_p99_ms && !grows;
            let achieved = r.done_s.iter().filter(|&&t| t < end_s).count() as f64 / rung_secs;
            o.note(format!(
                "climb {} rung {rate:>6} rps: {} answered, achieved {achieved:.0}/s, p99 {p99:.3} ms, \
                 backlog {} -> {}",
                self.climbs,
                r.completed,
                if grows { "grows" } else { "steady" },
                if pass { "pass" } else { "FAIL" }
            ));
            if pass {
                best = Some((idx, achieved));
            }
            next = staircase_next(idx, pass, prev, self.rungs.len(), stride);
            prev = Some(pass);
        }
        self.results.extend(best);
    }
}

/// The traced serving run: the reference schedule over TCP untraced and
/// traced, then one layer down at a time — the in-process engine on two
/// caller threads, `ServeState::respond` on one thread, the scoring
/// primitives, and the codec.
#[allow(clippy::too_many_arguments)]
fn run_traced(
    o: &mut Outcome,
    kind: Kind,
    server: &Server,
    plan: &[Planned],
    origin: Instant,
    reference: &Reference,
    seed: u64,
) {
    let mut tr = Tracer::new(origin);
    // The same schedule, re-based to start now; swaps alternate as
    // planned, so their count must be even for the generation after the
    // replay to be A again.
    let rebase = |plan: &[Planned]| -> Vec<Planned> {
        let shift = now_ns(origin) + 5_000_000 - plan.first().map_or(0, |p| p.due_ns);
        plan.iter().map(|p| Planned { due_ns: p.due_ns + shift, ..p.clone() }).collect()
    };
    let n_swaps = plan.iter().filter(|p| matches!(p.req, Request::SwapArtifact { .. })).count();

    // 1. TCP, untraced and traced.
    let untraced_plan = rebase(plan);
    let u = phase(server, &untraced_plan, origin, reference, seed);
    fold(o, "tcp untraced", &u);
    // Each replay of the schedule must start on generation A so that it
    // replays the same version sequence.
    if n_swaps % 2 == 1 {
        server.restore_generation_a();
    }
    let before = server.engine.stats();
    let traced_plan = rebase(plan);
    let t = phase(server, &traced_plan, origin, reference, seed);
    let after = server.engine.stats();
    fold(o, "tcp traced", &t);
    let root = tr.record(
        "serve.tcp.phase",
        traced_plan.first().map_or(0, |p| p.due_ns),
        now_ns(origin),
        None,
        None,
    );
    for &(i, ms) in &t.rec_latency_ms {
        let due = traced_plan[i].due_ns;
        tr.record("serve.tcp.request", due, due + (ms * 1e6) as u64, Some(root), Some(i as u64));
    }
    let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 50.0).unwrap_or(0.0);
    let tcp_ms: Vec<f64> = t.rec_latency_ms.iter().map(|x| x.1).collect();
    let untraced_ms: Vec<f64> = u.rec_latency_ms.iter().map(|x| x.1).collect();
    o.set("trace.overhead_frac", p50(&tcp_ms) / p50(&untraced_ms) - 1.0);
    o.set("serve.tcp.latency_p99_ms", percentile(&sorted(tcp_ms.clone()), 99.0).unwrap_or(0.0));
    o.set("loadgen.lag_p99_ms", percentile(&sorted(t.lag_ms.clone()), 99.0).unwrap_or(0.0));
    o.set("loadgen.sent", t.sent as f64);
    o.set("loadgen.completed", t.completed as f64);
    o.set("loadgen.failed", t.failed as f64);
    let batches = after.batches - before.batches;
    o.set("serve.engine.batches", batches as f64);
    o.set(
        "serve.engine.avg_batch",
        (after.requests - before.requests) as f64 / batches.max(1) as f64,
    );
    o.set("serve.engine.errors", (after.errors - before.errors) as f64);
    o.set("serve.swap.count", (after.swaps - before.swaps) as f64);
    if n_swaps % 2 == 1 {
        server.restore_generation_a();
    }

    // 2. The in-process engine: the same schedule's recommend requests on
    // two caller threads (one per connection), swaps included.
    let engine_plan = rebase(plan);
    let engine_ms = replay_engine(&mut tr, server, &engine_plan, origin, o);

    // 3. ServeState::respond on one thread, and 4. the primitives.
    let state = server.engine.registry().get(ServeEngine::DEFAULT_TENANT).expect("tenant").load();
    let mut scratch = ServeScratch::new();
    let mut respond_us = vec![f64::NAN; plan.len()];
    let mut prim = Primitives::default();
    let replay_id = tr.open("serve.replay", None);
    for (i, p) in plan.iter().enumerate() {
        if let Request::Recommend { req, .. } = &p.req {
            let t0 = tr.now();
            let _ = std::hint::black_box(state.respond(req, &mut scratch));
            let t1 = tr.now();
            tr.record("serve.state.respond", t0, t1, Some(replay_id), Some(i as u64));
            respond_us[i] = (t1 - t0) as f64 * 1e-3;
            prim.run(&mut tr, replay_id, i as u64, &state, req);
        }
    }
    tr.close(replay_id);

    // 5. The codec: request and response, both directions.
    let mut codec_us = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        if let Request::Recommend { req, .. } = &p.req {
            let resp = state
                .respond(req, &mut scratch)
                .map(|r| Response::Recs { version: r.version, recs: r.recs });
            let Ok(resp) = resp else { continue };
            let t0 = tr.now();
            let q = encode_request(&p.req);
            let back = decode_request(&q);
            let a = encode_response(&resp);
            let back_resp = decode_response(&a);
            let t1 = tr.now();
            let _ = std::hint::black_box((back, back_resp));
            tr.record("serve.protocol.codec", t0, t1, Some(replay_id), Some(i as u64));
            codec_us.push((t1 - t0) as f64 * 1e-3);
        }
    }

    // Per-request layer splits (recommend requests answered everywhere).
    let tcp_by_i: std::collections::HashMap<usize, f64> =
        t.rec_latency_ms.iter().copied().collect();
    let (mut wait_us, mut overhead_us, mut tcp_us, mut respond_v) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, e_ms) in engine_ms.iter().enumerate() {
        let (Some(e_ms), Some(&tcp)) = (e_ms, tcp_by_i.get(&i)) else { continue };
        let r_us = respond_us[i];
        if !r_us.is_finite() {
            continue;
        }
        wait_us.push(e_ms * 1e3 - r_us);
        overhead_us.push((tcp - e_ms) * 1e3);
        tcp_us.push(tcp * 1e3);
        respond_v.push(r_us);
    }
    let respond_p50 = p50(&respond_v);
    o.set("serve.state.respond_us_p50", respond_p50);
    o.set("serve.engine.wait_us_p50", p50(&wait_us));
    o.set("serve.tcp.overhead_us_p50", p50(&overhead_us));
    o.set("serve.protocol.codec_us", mean(&codec_us));
    let (score_us, topk_us, probe_us, items_us) = (
        mean(&prim.score_catalogue_us),
        mean(&prim.topk_us),
        mean(&prim.probe_us),
        mean(&prim.score_items_us),
    );
    o.set("models.score_catalogue_us", score_us);
    o.set("linalg.topk_us", topk_us);
    o.set("models.ivf_probe_us", probe_us);
    o.set("models.score_items_us", items_us);
    // Ledger: the layers' mean times against the mean TCP latency.
    let explained = mean(&overhead_us) + mean(&wait_us) + score_us + topk_us + probe_us + items_us;
    o.set("core.coverage_frac", explained / mean(&tcp_us));
    o.note(format!(
        "per recommend request (mean us): tcp {:.1} = tcp overhead {:.1} + engine wait {:.1} + respond {:.1}; \
         respond ⊇ score {score_us:.1} + ivf probe {probe_us:.1} + shortlist {items_us:.1} + top-k {topk_us:.1}; \
         codec {:.2}",
        mean(&tcp_us),
        mean(&overhead_us),
        mean(&wait_us),
        mean(&respond_v),
        mean(&codec_us)
    ));
    if kind == Kind::Exact {
        o.note(format!("respond p50 {respond_p50:.1} us"));
    }
    o.tracer = Some(tr);
}

/// What one engine caller thread saw: `(plan index, start, end)` per
/// recommend, `(load start, load end, swap start, swap end)` per swap,
/// and the error count; times in ns since the origin.
type CallerLog = (Vec<(usize, u64, u64)>, Vec<(u64, u64, u64, u64)>, usize);

/// Replays the plan's recommend requests (and swaps) through
/// `ServeEngine::recommend` on one caller thread per connection, each
/// waiting for its request's due time. Returns the engine latency (ms,
/// from due) per plan index.
fn replay_engine(
    tr: &mut Tracer,
    server: &Server,
    plan: &[Planned],
    origin: Instant,
    o: &mut Outcome,
) -> Vec<Option<f64>> {
    let engine = &server.engine;
    let tenant = ServeEngine::DEFAULT_TENANT;
    let results: Vec<CallerLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ALL_CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut lat = Vec::new();
                    let mut swaps = Vec::new();
                    let mut errors = 0usize;
                    for (i, p) in plan.iter().enumerate().filter(|(_, p)| p.conn == c) {
                        let due = origin + Duration::from_nanos(p.due_ns);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        match &p.req {
                            Request::Recommend { req, .. } => {
                                let t0 = origin.elapsed().as_nanos() as u64;
                                match engine.recommend(tenant, *req) {
                                    Ok(_) => lat.push((i, t0, origin.elapsed().as_nanos() as u64)),
                                    Err(_) => errors += 1,
                                }
                            }
                            Request::SwapArtifact { path, .. } => {
                                let t0 = origin.elapsed().as_nanos() as u64;
                                let Ok(art) = ModelArtifact::load(path) else {
                                    errors += 1;
                                    continue;
                                };
                                let t1 = origin.elapsed().as_nanos() as u64;
                                let current = engine.registry().get(tenant).expect("tenant").load();
                                let state = ServeState::with_seen_from(art, &current);
                                drop(current);
                                let t2 = origin.elapsed().as_nanos() as u64;
                                if engine.swap(tenant, state).is_err() {
                                    errors += 1;
                                }
                                let t3 = origin.elapsed().as_nanos() as u64;
                                swaps.push((t0, t1, t2, t3));
                            }
                            _ => {}
                        }
                    }
                    (lat, swaps, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("engine caller panicked")).collect()
    });
    let root = tr.open("serve.engine.replay", None);
    let mut out = vec![None; plan.len()];
    let (mut load_ms, mut swap_ms) = (Vec::new(), Vec::new());
    let mut errors = 0;
    for (lat, swaps, e) in results {
        errors += e;
        for (i, t0, t1) in lat {
            tr.record("serve.engine.recommend", t0, t1, Some(root), Some(i as u64));
            out[i] = Some(t1.saturating_sub(plan[i].due_ns) as f64 * 1e-6);
        }
        for (t0, t1, t2, t3) in swaps {
            tr.record("models.artifact_load", t0, t1, Some(root), None);
            tr.record("serve.swap", t2, t3, Some(root), None);
            load_ms.push((t1 - t0) as f64 * 1e-6);
            swap_ms.push((t3 - t2) as f64 * 1e-6);
        }
    }
    tr.close(root);
    o.check(errors == 0, format!("in-process engine replay: {errors} errors"));
    o.set("models.artifact_load_ms", mean(&load_ms));
    o.set("serve.swap.swap_ms_p99", percentile(&sorted(swap_ms), 99.0).unwrap_or(0.0));
    // Leave generation A serving (the swaps alternate B, A, ...).
    if load_ms.len() % 2 == 1 {
        server.restore_generation_a();
    }
    out
}

/// Per-request timings of the scoring primitives behind `respond`.
#[derive(Default)]
struct Primitives {
    q: Vec<f32>,
    scores: Vec<f32>,
    ids: Vec<u32>,
    topk: TopK,
    probe: ProbeScratch,
    candidates: Vec<u32>,
    cand_scores: Vec<f32>,
    pairs: Vec<(u32, f32)>,
    score_catalogue_us: Vec<f64>,
    topk_us: Vec<f64>,
    probe_us: Vec<f64>,
    score_items_us: Vec<f64>,
}

impl Primitives {
    /// Runs the path `req` resolves to on `state`, one span per
    /// primitive.
    fn run(
        &mut self,
        tr: &mut Tracer,
        parent: usize,
        id: u64,
        state: &ServeState,
        req: &RecommendRequest,
    ) {
        let art = state.artifact();
        let seen = state.seen(req.user);
        art.query_into(req.user, &mut self.q);
        match (state.resolve(&req.opts), art.index()) {
            (Some(nprobe), Some(index)) => {
                let t0 = tr.now();
                index.probe_into(&self.q, nprobe, &mut self.probe, &mut self.candidates);
                let t1 = tr.now();
                art.score_items_query_into(&self.q, &self.candidates, &mut self.cand_scores);
                let t2 = tr.now();
                let cands = &self.candidates;
                select_scored_into(
                    &self.cand_scores,
                    cands,
                    req.k,
                    |p| seen.binary_search(&cands[p]).is_ok(),
                    &mut self.pairs,
                );
                let t3 = tr.now();
                tr.record("models.ivf_probe", t0, t1, Some(parent), Some(id));
                tr.record("models.score_items", t1, t2, Some(parent), Some(id));
                tr.record("linalg.topk", t2, t3, Some(parent), Some(id));
                self.probe_us.push((t1 - t0) as f64 * 1e-3);
                self.score_items_us.push((t2 - t1) as f64 * 1e-3);
                self.topk_us.push((t3 - t2) as f64 * 1e-3);
            }
            _ => {
                let t0 = tr.now();
                art.score_catalogue_query_into(&self.q, &mut self.scores);
                let t1 = tr.now();
                self.topk.select_masked_into(
                    &self.scores,
                    req.k,
                    |i| seen.binary_search(&(i as u32)).is_ok(),
                    &mut self.ids,
                );
                let t2 = tr.now();
                tr.record("models.score_catalogue", t0, t1, Some(parent), Some(id));
                tr.record("linalg.topk", t1, t2, Some(parent), Some(id));
                self.score_catalogue_us.push((t1 - t0) as f64 * 1e-3);
                self.topk_us.push((t2 - t1) as f64 * 1e-3);
            }
        }
        std::hint::black_box((&self.ids, &self.pairs));
    }
}
