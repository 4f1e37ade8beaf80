//! `ingest_mixed`: the relational engine on `dblp_large`, registered
//! mutable, used for writes beside reads.
//!
//! * Phase A (bulk, no readers, a fixed op count): one thread ingests
//!   paper/write/cite tuples through `Dispatcher::ingest`, commits every 500
//!   tuples, deletes 5 % of the papers it ingested, merges every 20 commits.
//! * Phase B (mixed, `--seconds` long): an **open-loop** writer applies one
//!   paper (4 tuples) per batch on a fixed schedule (8 batches/s, a commit
//!   every fifth batch), each batch timed from when it was *due*, while one
//!   closed-loop reader runs `kw2` queries with 1 ms of think time. Every
//!   mutation is a new generation, so every cache level is invalidated.
//!
//! A read-side gain bought with ingest, commit or invalidation cost shows
//! here, and so does reader/writer coupling: queries hold the engine's
//! state lock end to end and `Dispatcher::ingest` takes it per tuple, so
//! every tuple waits out the query in flight. That is why the schedule is
//! 32 tuples/s and not the 2 000 first planned: at 100-tuple batches, 160
//! batches took 223 s instead of 8 s. Without the think time it is worse
//! still — the reader re-takes the lock before a woken writer runs (the
//! standard `RwLock` hands over, it does not queue) and the writer starves:
//! 27 of 64 one-paper batches in 8 s, 3.8 s late. The stall metric carries
//! the coupling until it is removed; `bench.writer_lateness_p99_ms` says
//! whether the schedule was kept.

use super::{
    common_metrics, reissue, relational, Load, Relational, DBLP, DIGEST_OPS, K, REISSUE_EVERY,
    REPLAY_EVERY,
};
use crate::agg::{pexec_tail, RelationalAgg};
use crate::datasets::{frozen, DBLP_LARGE};
use crate::gen::{due_ns, open_loop_timing, IngestGen, QueryGen, WriteOp, TUPLES_PER_PAPER};
use crate::harness::{
    issue, peak_rss_mb, repeat_setup, response_digest, run_topk_oracles, validate, Checker, Ctx,
    Fnv, OracleSample, Outcome, Phases, Samples,
};
use crate::layers::{ingest_micro, relational_traced, row_of};
use crate::metrics::Values;
use crate::stats;
use crate::trace::Tracer;
use kwdb::common::Value;
use kwdb::dispatch::Dispatcher;
use kwdb::engine::{DeleteKey, IngestRecord, SearchRequest};
use kwdb::relsearch::corpus_stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed reader queries that end set-up.
const WARMUP_OPS: usize = 12;
/// Phase A: papers ingested (× 4 tuples) and its commit/merge cadence.
const BULK_PAPERS: usize = 10_000;
const COMMIT_EVERY_TUPLES: usize = 500;
const MERGE_EVERY_COMMITS: usize = 20;
/// Phase B: the open-loop writer's schedule.
const BATCH_PAPERS: usize = 1;
const BATCHES_PER_S: f64 = 8.0;
const COMMIT_EVERY_BATCHES: u64 = 5;
/// Pause between the reader's queries in phase B.
const READER_THINK: Duration = Duration::from_millis(1);
/// Fresh queries answered on the final state for the top-k oracle.
const ORACLE_QUERIES: usize = 20;

/// Apply one generated mutation through the dispatcher.
fn apply(d: &Dispatcher, op: &WriteOp) -> kwdb::Result<()> {
    match op {
        WriteOp::Ingest(table, cells) => d.ingest(
            DBLP,
            IngestRecord::Tuple {
                table: table.to_string(),
                values: row_of(cells),
            },
        ),
        WriteOp::DeletePaper(pid) => d.delete(
            DBLP,
            DeleteKey::TuplePk {
                table: "paper".into(),
                pk: Value::from(*pid),
            },
        ),
    }
}

/// Read-your-writes probes after a commit: the marker token of the last
/// ingested paper finds it; the marker of the last deleted paper finds
/// nothing.
fn probe(d: &Dispatcher, checker: &mut Checker, last_pid: i64, last_deleted: Option<i64>) {
    let mut off = Tracer::new(false, Instant::now(), 0);
    let mut hits_for = |pid: i64| {
        let req = SearchRequest::new(IngestGen::marker(pid)).k(K);
        issue(d, &mut off, 0, DBLP, req).0.map(|r| r.hits.len())
    };
    checker.verdict(
        "commit probe",
        match hits_for(last_pid) {
            Ok(0) => Err(format!("paper {last_pid} not visible after commit")),
            Ok(_) => Ok(()),
            Err(e) => Err(e.to_string()),
        },
    );
    if let Some(pid) = last_deleted {
        checker.verdict(
            "delete probe",
            match hits_for(pid) {
                Ok(0) => Ok(()),
                Ok(n) => Err(format!("deleted paper {pid} returned in {n} hits")),
                Err(e) => Err(e.to_string()),
            },
        );
    }
}

/// Writer-side measurements.
#[derive(Default)]
struct Writes {
    tuples: u64,
    commit_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
}

/// Ingest `papers` papers in batches of `batch_tuples`; returns the seconds
/// spent applying, committing and merging (probes excluded).
fn bulk_phase(
    rel: &Relational,
    gen: &mut IngestGen,
    checker: &mut Checker,
    writes: &mut Writes,
    papers: usize,
) -> f64 {
    let mut busy = Duration::ZERO;
    let papers_per_commit = COMMIT_EVERY_TUPLES / TUPLES_PER_PAPER;
    let mut commits = 0;
    let mut done = 0;
    while done < papers {
        let mut last_pid = 0;
        let ops: Vec<WriteOp> = (0..papers_per_commit.min(papers - done))
            .flat_map(|_| {
                let (pid, ops) = gen.next_paper();
                last_pid = pid;
                ops
            })
            .collect();
        done += papers_per_commit;
        let t = Instant::now();
        for op in &ops {
            checker.attempt();
            if let Err(e) = apply(&rel.dispatcher, op) {
                checker.fail(|| format!("bulk write: {e}"));
            }
        }
        let committing = Instant::now();
        let committed = rel.dispatcher.commit(DBLP);
        writes
            .commit_ms
            .push(committing.elapsed().as_secs_f64() * 1e3);
        commits += 1;
        let merged = if commits % MERGE_EVERY_COMMITS == 0 {
            rel.engine.merge().map(|_| ())
        } else {
            Ok(())
        };
        busy += t.elapsed();
        writes.tuples += ops.len() as u64;
        checker.verdict("commit", committed.and(merged).map_err(|e| e.to_string()));
        probe(
            &rel.dispatcher,
            checker,
            last_pid,
            gen.deleted.last().copied(),
        );
    }
    busy.as_secs_f64()
}

/// The open-loop writer of phase B. Runs its schedule for `seconds`, then
/// raises `done`.
fn writer(
    d: &Dispatcher,
    gen: &mut IngestGen,
    tracer: &mut Tracer,
    seconds: f64,
    done: &AtomicBool,
) -> (Writes, Checker) {
    let mut writes = Writes::default();
    let mut checker = Checker::default();
    let started = Instant::now();
    let now = || started.elapsed().as_nanos() as u64;
    for batch in 0u64.. {
        let due = due_ns(batch, BATCHES_PER_S);
        // a writer that has fallen behind its schedule still stops on time
        if due.max(now()) as f64 / 1e9 >= seconds {
            break;
        }
        let mut last_pid = 0;
        let ops: Vec<WriteOp> = (0..BATCH_PAPERS)
            .flat_map(|_| {
                let (pid, ops) = gen.next_paper();
                last_pid = pid;
                ops
            })
            .collect();
        if let Some(wait) = due.checked_sub(now()) {
            std::thread::sleep(Duration::from_nanos(wait));
        }
        let begun = now();
        let span = tracer.begin("dispatch.write_batch", None, batch);
        for op in &ops {
            checker.attempt();
            if let Err(e) = apply(d, op) {
                checker.fail(|| format!("write: {e}"));
            }
        }
        let commits = batch % COMMIT_EVERY_BATCHES == COMMIT_EVERY_BATCHES - 1;
        if commits {
            let (committed, ns) =
                tracer.span("dispatch.commit", Some(span), batch, || d.commit(DBLP));
            writes.commit_ms.push(ns as f64 / 1e6);
            checker.verdict("commit", committed.map(|_| ()).map_err(|e| e.to_string()));
        }
        tracer.end(span);
        let timing = open_loop_timing(due, begun, now());
        writes.stall_ms.push(timing.stall_ns as f64 / 1e6);
        writes.lateness_ms.push(timing.lateness_ns as f64 / 1e6);
        writes.tuples += ops.len() as u64;
        if commits {
            probe(d, &mut checker, last_pid, gen.deleted.last().copied());
        }
    }
    done.store(true, Ordering::SeqCst);
    (writes, checker)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut values = Values::default();
    let mut phases = Phases::start();
    let mut checker = Checker::default();

    let ((rel, mut queries), setup) = repeat_setup(ctx.setup_reps(5), |probe| {
        let rel = relational("dblp_large", &DBLP_LARGE, true, probe);
        let mut queries = QueryGen::new(rel.vocab.clone(), ctx.seed);
        let mut off = Tracer::new(false, ctx.epoch, 0);
        for _ in 0..ctx.ops(WARMUP_OPS) {
            let req = SearchRequest::new(queries.kw2()).k(K);
            let _ = issue(&rel.dispatcher, &mut off, 0, DBLP, req);
        }
        (rel, queries)
    });
    phases.lap("setup");
    rel.digest.check(&mut checker, frozen::DBLP_LARGE);
    values.set("datasets.generate_s", rel.generate_s);
    values.set(
        "bench.resolved_workers",
        rel.engine.resolved_workers() as f64,
    );

    let mut gen = IngestGen::new(rel.vocab.clone(), &rel.base, ctx.seed);
    // the write-path micro-measures need the database as it is before any
    // ingest; a snapshot held *across* ingests would turn the engine's next
    // mutation into a full copy, so take it, use it, drop it
    if ctx.traced {
        let db = rel.engine.database();
        ingest_micro(&mut values, &db, &gen, ctx.ops(500));
    }

    phases.lap("ingest_micro");
    // Phase A: bulk ingest, no readers.
    let mut writes = Writes::default();
    let bulk_s = bulk_phase(
        &rel,
        &mut gen,
        &mut checker,
        &mut writes,
        ctx.ops(BULK_PAPERS),
    );
    values.set("ingest.tuples_per_s", writes.tuples as f64 / bulk_s);
    let bulk_tuples = writes.tuples;

    phases.lap("bulk");
    // Phase B: open-loop writer beside a closed-loop reader.
    let mut reader_tracer = Tracer::new(ctx.traced, ctx.epoch, 0);
    let mut writer_tracer = Tracer::new(ctx.traced, ctx.epoch, 1);
    let mut samples = Samples::default();
    let mut agg = RelationalAgg::default();
    let mut digest = Fnv::default();
    let mut replay: Vec<(u64, SearchRequest)> = Vec::new();
    let mut busy_ns = 0u64;
    let mut i = 0u64;
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (mixed_writes, writer_checks) = std::thread::scope(|s| {
        let writing = s.spawn(|| {
            writer(
                &rel.dispatcher,
                &mut gen,
                &mut writer_tracer,
                ctx.seconds,
                &done,
            )
        });
        while !done.load(Ordering::SeqCst) {
            let req = SearchRequest::new(queries.kw2()).k(K);
            let (resp, ns) = issue(&rel.dispatcher, &mut reader_tracer, i, DBLP, req.clone());
            busy_ns += ns;
            if let Some(resp) = validate(&mut checker, "query", &resp, K) {
                samples.record(resp, ns);
                agg.observe(resp, ns);
                // the data moves under the reader, so its answers are not a
                // function of the seed alone: digest the requests instead
                if i < DIGEST_OPS {
                    digest.str(req.query());
                }
                // at once, before the next write makes a new generation
                if i.is_multiple_of(REISSUE_EVERY) {
                    let hit = reissue(
                        &rel.dispatcher,
                        &mut reader_tracer,
                        i,
                        DBLP,
                        &req,
                        response_digest(resp),
                        &mut checker,
                    );
                    samples.hit_us.extend(hit);
                }
            }
            if ctx.traced && i.is_multiple_of(REPLAY_EVERY) {
                replay.push((i, req));
            }
            i += 1;
            std::thread::sleep(READER_THINK);
        }
        writing.join().expect("writer thread panicked")
    });
    phases.lap("load");
    let timed_s = started.elapsed().as_secs_f64();
    let timed_spans = reader_tracer.len() + writer_tracer.len();
    checker.merge(writer_checks);
    writes.commit_ms.extend(&mixed_writes.commit_ms);
    let mut stall_ms = mixed_writes.stall_ms;
    let mut lateness_ms = mixed_writes.lateness_ms;
    values.set("ingest.commit_p50_ms", stats::median(&mut writes.commit_ms));
    values.set("ingest.write_stall_p50_ms", stats::median(&mut stall_ms));
    values.set(
        "bench.writer_lateness_p99_ms",
        stats::percentile(&mut lateness_ms, 0.99),
    );

    let peak_rss = peak_rss_mb();

    // Oracle on the final state: fresh queries, answered now and re-answered
    // by the naive evaluator over the same snapshot.
    let db = rel.engine.database();
    let corpus = Arc::new(corpus_stats(&db));
    let mut off = Tracer::new(false, ctx.epoch, 0);
    let mut oracle = Vec::new();
    for _ in 0..ctx.ops(ORACLE_QUERIES) {
        let query = queries.kw2();
        let req = SearchRequest::new(query.as_str()).k(K);
        let (resp, ns) = issue(&rel.dispatcher, &mut off, 0, DBLP, req);
        if let Some(resp) = validate(&mut checker, "oracle query", &resp, K) {
            oracle.push(OracleSample::of(&query, resp, ns));
        }
    }
    let oracle_checks = run_topk_oracles(&mut checker, &db, &corpus, K, oracle);

    phases.lap("checks");
    agg.report(&mut values);
    pexec_tail(&mut values, &mut samples.computed_ms);
    let mut counts = vec![
        ("bulk_tuples", bulk_tuples),
        ("mixed_tuples", mixed_writes.tuples),
        ("commits", writes.commit_ms.len() as u64),
        ("write_batches", stall_ms.len() as u64),
        ("papers_deleted", gen.deleted.len() as u64),
        ("requests_timed", i),
        ("requests_reissued_hits", samples.hit_us.len() as u64),
        ("oracle_checks", oracle_checks),
    ];
    if ctx.traced {
        let warm: Vec<String> = (0..32).map(|_| queries.kw2()).collect();
        let replayed = relational_traced(
            &mut values,
            &mut reader_tracer,
            &rel.engine,
            &rel.registry,
            &replay,
            &warm,
            |n| ctx.ops(n),
        );
        counts.push(("requests_replayed", replayed));
    }
    phases.lap("replay_and_micro");
    let notes = vec![samples.report(&mut values)];
    let load = Load {
        requests: i,
        busy_client_s: busy_ns as f64 / 1e9,
        timed_s,
        timed_spans,
        peak_rss_mb: peak_rss,
    };
    common_metrics(&mut values, ctx, setup, &checker, &load);
    Outcome {
        values,
        checker,
        result_digest: digest.finish(),
        datasets: vec![rel.digest],
        counts,
        notes,
        phases: phases.finish(),
        tracers: vec![reader_tracer, writer_tracer],
    }
}
