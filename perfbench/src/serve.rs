//! `tunio_serve`: an in-process `tunio-serve` daemon driven over real
//! HTTP by two closed-loop tenant clients.

use crate::layers::{self, ratio, Segments};
use crate::report::{describe_latency, geomean, median, peak_rss_mb};
use crate::workload::{serve_stream, Submission, SERVE_BLOCK, SERVE_QUALITY_BLOCKS};
use crate::{Args, RunResult, SETUP_REPS};
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tunio_serve::{Daemon, ServeConfig};
use tunio_trace::timeline::Segment;

const TENANTS: usize = 2;
const GIB: f64 = (1u64 << 30) as f64;
/// How often a client looks at its campaign's event stream.
const POLL: Duration = Duration::from_millis(5);
/// A campaign still not settled after this long counts as failed.
const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(60);
/// In the traced run, every this many polls a client also times `/healthz`.
const HEALTHZ_EVERY: usize = 10;

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let timeout = Some(Duration::from_secs(30));
    stream
        .set_read_timeout(timeout)
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(timeout)
        .map_err(|e| e.to_string())?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn boot(wal_dir: &Path, trace_path: &Path) -> Daemon {
    crate::fresh_dir(wal_dir);
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        wal_dir: wal_dir.to_path_buf(),
        workers: 2,
        quiet: true,
        trace_path: Some(trace_path.to_path_buf()),
        ..ServeConfig::default()
    })
    .expect("the daemon boots")
}

/// Set-up as an operator meets it: boot with the JSONL trace sink on,
/// recovery scan of the WAL directory, a health check, and one small
/// warm-up campaign through the whole serve path.
fn setup(wal_dir: &Path, trace_path: &Path) -> Result<Daemon, String> {
    let daemon = boot(wal_dir, trace_path);
    let addr = daemon.addr();
    match http(addr, "GET", "/healthz", "")? {
        (200, _) => {}
        (code, body) => return Err(format!("healthz answered {code}: {body}")),
    }
    let body = "{\"tenant\":\"warmup\",\"name\":\"w\",\"app\":\"hacc\",\"pipeline\":\"hstuner\",\
                \"iterations\":3,\"population\":4,\"seed\":1}";
    match http(addr, "POST", "/campaigns", body)? {
        (202, _) => {}
        (code, body) => return Err(format!("warm-up refused with {code}: {body}")),
    }
    let started = Instant::now();
    loop {
        let (_, status) = http(addr, "GET", "/campaigns/warmup--w", "")?;
        if status.contains("\"state\":\"done\"") {
            return Ok(daemon);
        }
        if status.contains("\"state\":\"failed\"") || started.elapsed() > CAMPAIGN_DEADLINE {
            return Err(format!("warm-up did not finish: {status}"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One campaign as a client saw it.
#[derive(Debug, Default)]
struct Seen {
    tenant: usize,
    sub: usize,
    id: String,
    submit_ms: f64,
    first_result_s: Option<f64>,
    latency_s: f64,
    /// Seconds from the window start to the moment the client saw `done`.
    done_at_s: f64,
    refused: bool,
    error: Option<String>,
    healthz_ms: Vec<f64>,
    timeline: Option<String>,
}

/// A closed-loop tenant: submit, follow the event stream until the
/// campaign settles, submit the next. Stops once `seconds` have passed
/// and at least `min` submissions were made, or after `max`.
fn client(
    addr: SocketAddr,
    tenant: usize,
    subs: &[Submission],
    window: Instant,
    seconds: f64,
    (min, max): (usize, usize),
    traced: bool,
) -> Vec<Seen> {
    let mut seen = Vec::new();
    for (n, sub) in subs.iter().enumerate().take(max) {
        if n >= min && window.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let mut s = Seen {
            tenant,
            sub: n,
            id: format!("t{tenant}--{}", sub.name),
            ..Seen::default()
        };
        follow(addr, sub, &mut s, window, traced);
        seen.push(s);
    }
    seen
}

fn follow(addr: SocketAddr, sub: &Submission, s: &mut Seen, window: Instant, traced: bool) {
    let body = format!(
        "{{\"tenant\":\"t{}\",\"name\":\"{}\",\"app\":\"{}\",\"seed\":{}}}",
        s.tenant, sub.name, sub.app, sub.seed
    );
    let submitted = Instant::now();
    let reply = http(addr, "POST", "/campaigns", &body);
    s.submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
    match reply {
        Ok((202, _)) => {}
        Ok((code, reply)) => {
            s.refused = code == 429 || code == 503;
            s.error = Some(format!("{}: submit answered {code}: {reply}", s.id));
            return;
        }
        Err(e) => {
            s.error = Some(e);
            return;
        }
    }
    let events_path = format!("/campaigns/{}/events", s.id);
    let mut lines_seen = 0;
    let mut polls = 0;
    loop {
        std::thread::sleep(POLL);
        polls += 1;
        if traced && polls % HEALTHZ_EVERY == 0 {
            let t = Instant::now();
            if let Ok((200, _)) = http(addr, "GET", "/healthz", "") {
                s.healthz_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let body = match http(addr, "GET", &format!("{events_path}?from={lines_seen}"), "") {
            Ok((200, body)) => body,
            Ok((code, body)) => {
                s.error = Some(format!("{}: events answered {code}: {body}", s.id));
                return;
            }
            Err(e) => {
                s.error = Some(e);
                return;
            }
        };
        let mut settled = false;
        for line in body.lines() {
            lines_seen += 1;
            if line.contains("\"event\":\"generation\"") && s.first_result_s.is_none() {
                s.first_result_s = Some(submitted.elapsed().as_secs_f64());
            } else if line.contains("\"event\":\"done\"") {
                settled = true;
            } else if line.contains("\"event\":\"failed\"") {
                s.error = Some(format!("{} failed: {line}", s.id));
                settled = true;
            }
        }
        if settled {
            break;
        }
        if submitted.elapsed() > CAMPAIGN_DEADLINE {
            s.error = Some(format!("{} did not settle in {CAMPAIGN_DEADLINE:?}", s.id));
            return;
        }
    }
    s.latency_s = submitted.elapsed().as_secs_f64();
    s.done_at_s = window.elapsed().as_secs_f64();
    if traced && s.error.is_none() {
        match http(addr, "GET", &format!("/campaigns/{}/timeline", s.id), "") {
            Ok((200, body)) => s.timeline = Some(body),
            Ok((code, body)) => s.error = Some(format!("{}: timeline {code}: {body}", s.id)),
            Err(e) => s.error = Some(e),
        }
    }
}

/// Run both tenants concurrently; results in (tenant, submission) order.
fn drive(
    addr: SocketAddr,
    streams: &[Vec<Submission>],
    seconds: f64,
    (min, max): (usize, usize),
    traced: bool,
) -> (Vec<Seen>, f64) {
    let window = Instant::now();
    let mut seen: Vec<Seen> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, subs)| {
                scope.spawn(move || client(addr, t, subs, window, seconds, (min, max), traced))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    seen.sort_by_key(|s| (s.tenant, s.sub));
    let end = seen.iter().map(|s| s.done_at_s).fold(0.0, f64::max);
    (seen, end)
}

/// Engine counters per campaign id, from `GET /campaigns`.
struct Counters {
    evaluations: f64,
    cache_hits: f64,
    sim_wall_s: f64,
}

fn counters(addr: SocketAddr) -> Result<HashMap<String, Counters>, String> {
    let (code, body) = http(addr, "GET", "/campaigns", "")?;
    if code != 200 {
        return Err(format!("GET /campaigns answered {code}"));
    }
    let list: serde_json::Value = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    let serde_json::Value::Array(items) = list else {
        return Err("GET /campaigns is not a list".to_string());
    };
    let mut out = HashMap::new();
    for it in items {
        let id = it
            .get("id")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        // `counters` is null until a campaign has finished.
        if let Some(c) = it
            .get("counters")
            .filter(|c| !matches!(c, serde_json::Value::Null))
        {
            let num = |k: &str| c.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
            out.insert(
                id,
                Counters {
                    evaluations: num("evaluations"),
                    cache_hits: num("cache_hits"),
                    sim_wall_s: num("sim_wall_s"),
                },
            );
        }
    }
    Ok(out)
}

/// What a finished campaign's `{id}.outcome.json` says.
struct Outcome {
    text: String,
    best_perf: f64,
    cost_min: f64,
}

fn read_outcome(wal_dir: &Path, id: &str) -> Result<Outcome, String> {
    let path = wal_dir.join(format!("{id}.outcome.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let num = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
    let (best_perf, default_perf) = (num("best_perf"), num("default_perf"));
    if !(best_perf.is_finite() && default_perf.is_finite() && best_perf >= default_perf) {
        return Err(format!(
            "{id}: best_perf {best_perf} vs default {default_perf}"
        ));
    }
    let cost_s = match v.get("records") {
        Some(serde_json::Value::Array(records)) => records
            .last()
            .and_then(|r| r.get("cumulative_cost_s"))
            .and_then(|x| x.as_f64()),
        _ => None,
    }
    .ok_or_else(|| format!("{id}: outcome has no records"))?;
    Ok(Outcome {
        text,
        best_perf,
        cost_min: cost_s / 60.0,
    })
}

/// Total size of the campaign WALs (`{id}.jsonl`) in `dir`.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(".jsonl"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Set up `SETUP_REPS` times; the last daemon serves the timed window.
/// Returns it with its WAL directory and the set-up times.
fn setups(work: &Path) -> Result<(Daemon, PathBuf, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last: Option<(Daemon, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((mut d, _)) = last.take() {
            d.drain_and_join();
        }
        let wal_dir = work.join(format!("serve-{rep}"));
        let t = Instant::now();
        let daemon = setup(&wal_dir, &work.join(format!("serve-{rep}.jsonl")))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((daemon, wal_dir));
    }
    let (daemon, wal_dir) = last.expect("at least one set-up");
    Ok((daemon, wal_dir, times))
}

/// Read and check the outcome of every campaign the timed window ran:
/// sane values, and each repeat byte-equal to the first run of its
/// (app, seed).
fn check_window(
    seen: &[Seen],
    streams: &[Vec<Submission>],
    wal_dir: &Path,
    out: &mut RunResult,
) -> BTreeMap<String, Outcome> {
    let mut outcomes = BTreeMap::new();
    for s in seen {
        out.attempted += 1;
        if let Some(e) = &s.error {
            out.fail(e.clone());
            continue;
        }
        match read_outcome(wal_dir, &s.id) {
            Ok(o) => {
                outcomes.insert(s.id.clone(), o);
            }
            Err(e) => out.fail(e),
        }
    }
    for s in seen {
        let Some(of) = streams[s.tenant][s.sub].repeat_of else {
            continue;
        };
        let first = format!("t{}--{}", s.tenant, streams[s.tenant][of].name);
        if let (Some(a), Some(b)) = (outcomes.get(&s.id), outcomes.get(&first)) {
            if a.text != b.text {
                out.fail(format!("{}: repeat differs from {first}", s.id));
            }
        }
    }
    outcomes
}

pub fn run(args: &Args, work: &Path) -> RunResult {
    let mut out = RunResult::default();
    let streams: Vec<Vec<Submission>> = (0..TENANTS).map(|t| serve_stream(args.seed, t)).collect();
    let (mut daemon, wal_dir, setup_times) =
        setups(work).unwrap_or_else(|e| panic!("serve set-up failed: {e}"));

    let quality = SERVE_BLOCK * SERVE_QUALITY_BLOCKS;
    let addr = daemon.addr();
    let (seen, window_s) = drive(addr, &streams, args.seconds, (quality, usize::MAX), false);
    let rss = peak_rss_mb();
    let statuses = counters(addr);
    daemon.drain_and_join();
    let outcomes = check_window(&seen, &streams, &wal_dir, &mut out);

    // Warm cache and engine counters of the timed window.
    let ok: Vec<&Seen> = seen.iter().filter(|s| s.error.is_none()).collect();
    let repeats: Vec<&Seen> = seen
        .iter()
        .filter(|s| streams[s.tenant][s.sub].repeat_of.is_some())
        .collect();
    let (mut evaluations, mut sim_wall, mut warm_hits) = (0.0, 0.0, 0);
    match &statuses {
        Ok(c) => {
            for s in &ok {
                if let Some(c) = c.get(&s.id) {
                    evaluations += c.evaluations;
                    sim_wall += c.sim_wall_s;
                }
            }
            warm_hits = repeats
                .iter()
                .filter(|s| c.get(&s.id).is_some_and(|c| c.sim_wall_s == 0.0))
                .count();
        }
        Err(e) => out.problems.push(format!("counters: {e}")),
    }
    let refused = seen.iter().filter(|s| s.refused).count();

    // Quality over the fresh (app, seed) of each tenant's first blocks.
    let fresh: Vec<&Outcome> = seen
        .iter()
        .filter(|s| s.sub < quality && streams[s.tenant][s.sub].repeat_of.is_none())
        .filter_map(|s| outcomes.get(&s.id))
        .collect();
    let latencies: Vec<f64> = ok.iter().map(|s| s.latency_s).collect();
    let first: Vec<f64> = ok.iter().filter_map(|s| s.first_result_s).collect();
    out.lines.push(format!(
        "{} campaigns from {TENANTS} closed-loop tenants in {window_s:.3} s; \
         set-up median of {SETUP_REPS}: {:.4} s",
        seen.len(),
        median(&setup_times)
    ));
    out.lines
        .push(describe_latency("submit->done", &latencies, 1.0, "s"));
    out.lines
        .push(describe_latency("submit->first result", &first, 1.0, "s"));
    out.lines.push(format!(
        "warm cache: {warm_hits} of {} repeats ran no simulation; {refused} refused",
        repeats.len()
    ));
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_times));
    m.set("campaigns_per_s", ok.len() as f64 / window_s);
    m.set(
        "latency_p50_s",
        if latencies.is_empty() {
            0.0
        } else {
            median(&latencies)
        },
    );
    let best: Vec<f64> = fresh.iter().map(|o| o.best_perf / GIB).collect();
    let cost: Vec<f64> = fresh.iter().map(|o| o.cost_min).collect();
    m.set("best_gibs", geomean(&best));
    m.set("tuning_cost_min", geomean(&cost));
    m.set("peak_rss_mb", rss);
    m.set("serve.refused", refused as f64);
    m.set(
        "serve.warm_hit_ratio",
        ratio(warm_hits as f64, repeats.len() as f64),
    );
    m.set("iosim.us_per_eval", ratio(sim_wall * 1e6, evaluations));

    traced_run(args, work, &streams, &outcomes, &mut out);
    out
}

/// A fresh daemon replays each tenant's first block, timing submissions
/// and health checks, reading every timeline, and comparing every
/// outcome with the untraced run's.
fn traced_run(
    args: &Args,
    work: &Path,
    streams: &[Vec<Submission>],
    untraced: &BTreeMap<String, Outcome>,
    out: &mut RunResult,
) {
    let traced_dir = work.join("serve-traced");
    let traced_trace = work.join("serve-traced.jsonl");
    let mut daemon = boot(&traced_dir, &traced_trace);
    let block = (SERVE_BLOCK, SERVE_BLOCK);
    let (traced, _) = drive(daemon.addr(), streams, 0.0, block, true);
    let traced_counters = counters(daemon.addr());
    daemon.drain_and_join();

    let mut segments = Segments::default();
    // (wall s, scheduler_stall s, campaign seed) per traced campaign.
    let mut walls: Vec<(f64, f64, u64)> = Vec::new();
    for s in &traced {
        out.attempted += 1;
        if let Some(e) = &s.error {
            out.fail(format!("traced {e}"));
            continue;
        }
        match read_outcome(&traced_dir, &s.id) {
            Ok(o) if untraced.get(&s.id).is_some_and(|u| u.text == o.text) => {}
            Ok(_) => out.fail(format!(
                "{}: traced outcome differs from the untraced run",
                s.id
            )),
            Err(e) => out.fail(format!("traced {e}")),
        }
        let parsed = s
            .timeline
            .as_deref()
            .ok_or_else(|| "no timeline".to_string())
            .and_then(|t| serde_json::from_str::<serde_json::Value>(t).map_err(|e| e.to_string()));
        let mut one = Segments::default();
        match parsed.and_then(|v| one.add_json(&v).and_then(|()| segments.add_json(&v))) {
            Ok(()) => walls.push((
                one.wall_s(),
                one.segment_s(Segment::SchedulerStall),
                streams[s.tenant][s.sub].seed,
            )),
            Err(e) => out.fail(format!("{}: timeline: {e}", s.id)),
        }
    }
    let trace_text = std::fs::read_to_string(&traced_trace).unwrap_or_default();
    for line in trace_text.lines() {
        if let Err(e) = tunio_trace::sink::record_from_json(line) {
            out.problems.push(format!("trace line does not parse: {e}"));
        }
    }
    let (mut evals, mut hits) = (0.0, 0.0);
    match &traced_counters {
        Ok(c) => {
            for c in traced.iter().filter_map(|s| c.get(&s.id)) {
                evals += c.evaluations;
                hits += c.cache_hits;
            }
        }
        Err(e) => out.problems.push(format!("traced counters: {e}")),
    }
    let submit: Vec<f64> = traced.iter().map(|s| s.submit_ms / 1e3).collect();
    let healthz: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.healthz_ms.iter().map(|h| h / 1e3))
        .collect();
    out.lines.extend(segments.describe());
    out.lines.push(describe_latency(
        "traced POST /campaigns",
        &submit,
        1e3,
        "ms",
    ));
    out.lines.push(describe_latency(
        "traced GET /healthz under load",
        &healthz,
        1e3,
        "ms",
    ));

    let n = traced.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("trace.jsonl_bytes", trace_text.len() as f64 / n);
    m.set(
        "core.checkpoint.wal_bytes",
        wal_bytes(&traced_dir) as f64 / n,
    );
    m.set("tuner.engine.evaluations", evals / n);
    m.set("tuner.engine.cache_hit_ratio", ratio(hits, evals + hits));
    // The daemon's default campaigns run the classic GA loop: no
    // scheduler, no racing.
    for name in [
        "tuner.scheduler.committed",
        "tuner.scheduler.aliases",
        "tuner.scheduler.barrier_stalls",
        "tuner.racing.samples",
        "tuner.racing.topups",
        "tuner.racing.discards",
        "tuner.racing.discard_ratio",
    ] {
        m.set(name, 0.0);
    }
    segments.record(m);

    if args.trace {
        // Pretraining of every traced campaign's seed, timed from here,
        // against the campaign walls and scheduler stalls it hides in.
        let mut by_seed: HashMap<u64, (f64, f64)> = HashMap::new();
        for &(_, _, seed) in &walls {
            by_seed
                .entry(seed)
                .or_insert_with(|| layers::pretrain_s(10, seed));
        }
        let es: Vec<f64> = by_seed.values().map(|p| p.0).collect();
        let sc: Vec<f64> = by_seed.values().map(|p| p.1).collect();
        let pretrain: f64 = walls
            .iter()
            .map(|(_, _, seed)| by_seed[seed].0 + by_seed[seed].1)
            .sum();
        let wall: f64 = walls.iter().map(|w| w.0).sum();
        let stall: f64 = walls.iter().map(|w| w.1).sum();
        m.set("core.early_stop.pretrain_s", layers::mean(&es));
        m.set("core.smart_config.pretrain_s", layers::mean(&sc));
        m.set("core.pretrain_share", ratio(pretrain, wall));
        m.set("core.pretrain_stall_share", ratio(pretrain, stall));
        layers::measure_nn(m, args.seed);
        layers::measure_iosim(m, args.seed);
        layers::measure_trace_event(m, &work.join("event-probe.jsonl"));
        out.lines.push(format!(
            "pretraining: {pretrain:.3} s over {} campaigns = {:.1}% of their {wall:.3} s wall \
             and {:.1}% of their {stall:.3} s scheduler_stall",
            walls.len(),
            100.0 * ratio(pretrain, wall),
            100.0 * ratio(pretrain, stall)
        ));
    }
}
