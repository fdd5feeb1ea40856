//! The micro-batching scheduler: a bounded MPSC queue of scan jobs drained
//! by worker threads that coalesce pending requests into one batched
//! forward pass.
//!
//! The router [`JobQueue::submit`]s jobs (non-blocking; a full
//! queue is backpressure, answered 429 upstream). Each worker pops one job
//! (blocking with a poll timeout), opportunistically drains up to
//! `max_batch - 1` more, snapshots the current model `Arc` once, and scores
//! the union of all gadget streams in the batch through
//! [`sevuldet::score_prepared_mut`] — the same function the CLI uses, so
//! batching cannot change results. Each worker keeps a private detector
//! replica keyed on the registry's model version: the replica (and the
//! kernel workspace inside it) stays warm across batches and is only
//! re-cloned when a hot-reload bumps the version. Each job's outcome travels
//! back through its own [`Responder`].

use crate::metrics::Metrics;
use crate::registry::{LoadedModel, ModelChoice, MultiRegistry};
use sevuldet::faults;
use sevuldet::{
    attach_explanations, combine_ensemble, error_json, score_prepared_mut, Detector,
    PreparedSource, ScanReport,
};
use sevuldet_query::QueryEngine;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How a finished job's outcome travels back to whoever submitted it: the
/// router wraps a completion-queue send plus an event-loop wakeup. Dropping
/// a `Responder` unsent is safe: the completer inside answers 503 from its
/// own drop guard.
pub struct Responder(Box<dyn FnOnce(JobOutcome) + Send>);

impl Responder {
    /// Wraps a delivery function.
    pub fn new(f: impl FnOnce(JobOutcome) + Send + 'static) -> Responder {
        Responder(Box::new(f))
    }

    /// Delivers the outcome.
    pub fn send(self, outcome: JobOutcome) {
        (self.0)(outcome);
    }
}

impl std::fmt::Debug for Responder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Responder(..)")
    }
}

/// One scan request in flight.
#[derive(Debug)]
pub struct ScanJob {
    /// Label for the report (`"name"` field of the request, or a default).
    pub name: String,
    /// The C source to scan.
    pub source: String,
    /// Which registry model(s) score this job (resolved by the router — a
    /// worker never sees an unknown name).
    pub choice: ModelChoice,
    /// The `model` value stamped into the response, when the request picked
    /// one (explicitly or via a split). `None` keeps the response
    /// byte-identical to the pre-registry schema.
    pub model_label: Option<String>,
    /// Attach a Fig. 6 explanation to every finding (opt-in; one extra
    /// reference-path forward per gadget).
    pub explain: bool,
    /// When the job entered the queue (latency accounting).
    pub enqueued: Instant,
    /// Absolute deadline; jobs popped after it are answered 504 unscored.
    pub deadline: Instant,
    /// Where the outcome goes.
    pub resp: Responder,
}

/// What became of a scan job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Scored; the JSON report body (status 200).
    Report(String),
    /// The source did not parse; the JSON error body (status 422).
    ParseError(String),
    /// The deadline expired while the job was queued (status 504).
    DeadlineExceeded,
    /// Scoring this request panicked even in isolation — a poison input
    /// (status 500). Other requests in the same batch are unaffected.
    Panicked,
    /// The scoring pipeline broke an internal invariant (e.g. returned the
    /// wrong number of scores). A server bug, answered as a clean 500 —
    /// never via the panic machinery.
    Internal(String),
    /// The queue refused the job (429 on backpressure, 503 while
    /// draining). Workers never produce this; submitters push it through
    /// the job's own [`Responder`] so rejection and result take the same
    /// delivery path.
    Rejected(SubmitError),
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — backpressure (status 429).
    Full,
    /// The server is draining for shutdown (status 503).
    ShuttingDown,
}

/// The bounded scan queue. `SyncSender` gives the bound and the
/// non-blocking `try_send`; the single `Receiver` is shared by all workers
/// behind a mutex, which doubles as the batch-assembly critical section.
pub struct JobQueue {
    tx: Mutex<Option<SyncSender<ScanJob>>>,
    rx: Mutex<Receiver<ScanJob>>,
    metrics: Arc<Metrics>,
}

impl JobQueue {
    /// A queue holding at most `capacity` waiting jobs.
    pub fn new(capacity: usize, metrics: Arc<Metrics>) -> JobQueue {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        JobQueue {
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(rx),
            metrics,
        }
    }

    /// Non-blocking enqueue. A rejected job is handed back so the caller
    /// can answer through its [`Responder`] (the event loop's completer
    /// lives inside it and must deliver the right status).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] when the queue is at capacity,
    /// [`SubmitError::ShuttingDown`] once [`JobQueue::close`] ran — in both
    /// cases alongside the unconsumed job.
    // The large Err is the contract: the rejected job travels back whole so
    // its Responder can answer — boxing would just move the allocation onto
    // the accept path every request pays.
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, job: ScanJob) -> Result<(), (SubmitError, ScanJob)> {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return Err((SubmitError::ShuttingDown, job));
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(job)) => {
                self.metrics
                    .rejected_queue_full
                    .fetch_add(1, Ordering::Relaxed);
                Err((SubmitError::Full, job))
            }
            Err(TrySendError::Disconnected(job)) => Err((SubmitError::ShuttingDown, job)),
        }
    }

    /// Closes the queue for new submissions. Workers drain what is already
    /// queued and then exit — the graceful-shutdown half-close.
    pub fn close(&self) {
        self.tx.lock().unwrap_or_else(|e| e.into_inner()).take();
    }
}

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Most requests coalesced into one forward batch.
    pub max_batch: usize,
    /// `par` sharding inside a batch (threads per forward pass).
    pub inner_jobs: usize,
    /// Test hook: artificial latency per batch, simulating a slow model.
    pub batch_delay: Duration,
    /// The shared incremental query engine every prepare goes through
    /// (memoized, and persistent when the server has a `--cache-dir`).
    pub engine: Arc<QueryEngine>,
}

/// One worker's drain-coalesce-score loop. Returns when the queue is closed
/// and drained.
pub fn worker_loop(
    queue: &JobQueue,
    registry: &MultiRegistry,
    metrics: &Metrics,
    cfg: &WorkerConfig,
) {
    // This worker's warm detector replicas, one slot per registry model,
    // each tagged with the model version it was cloned from. Scoring through
    // `score_prepared_mut` needs `&mut`, and reusing replicas across batches
    // keeps their scratch buffers allocated instead of cloning the
    // registry's detectors per batch. Slots for models this worker never
    // scores stay `None`.
    let mut replicas: Vec<Option<(u64, Detector)>> = (0..registry.len()).map(|_| None).collect();
    loop {
        // Pop one job (poll so a closed-but-empty queue is noticed), then
        // coalesce whatever else is already waiting, up to max_batch. The
        // receiver lock makes batch assembly atomic across workers.
        let batch: Vec<ScanJob> = {
            let rx = queue.rx.lock().unwrap_or_else(|e| e.into_inner());
            match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(first) => {
                    let _t = sevuldet::trace::span!("serve.batch_assembly");
                    let mut batch = vec![first];
                    while batch.len() < cfg.max_batch.max(1) {
                        match rx.try_recv() {
                            Ok(job) => batch.push(job),
                            Err(_) => break,
                        }
                    }
                    batch
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        metrics
            .queue_depth
            .fetch_sub(batch.len() as i64, Ordering::Relaxed);
        metrics.batch_size.observe(batch.len() as f64);
        if !cfg.batch_delay.is_zero() {
            std::thread::sleep(cfg.batch_delay);
        }
        // Snapshot every model slot once per batch: a batch that started on
        // one generation finishes on it, for every model it touches.
        let models: Vec<Arc<LoadedModel>> = (0..registry.len())
            .map(|i| registry.by_index(i).current())
            .collect();

        // Triage: expired deadlines answer immediately; the rest are
        // prepared (parse + slice + normalize) and scored per model group.
        let now = Instant::now();
        let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(batch.len());
        let mut prepared: Vec<PreparedSource> = Vec::new();
        let mut prepared_names: Vec<String> = Vec::new();
        // For each prepared item, the job index it came from (to read the
        // model choice back during assembly).
        let mut prepared_jobs: Vec<usize> = Vec::new();
        for (ji, job) in batch.iter().enumerate() {
            // Enqueue happened on a connection-handler thread, so an RAII
            // guard cannot cover the wait; record the measured gap instead.
            sevuldet::trace::observe_duration(
                "serve.queue_wait",
                now.saturating_duration_since(job.enqueued).as_nanos() as u64,
            );
            if now > job.deadline {
                metrics.rejected_deadline.fetch_add(1, Ordering::Relaxed);
                outcomes.push(Some(JobOutcome::DeadlineExceeded));
            } else {
                // Through the shared engine: byte-identical to a direct
                // `prepare_source`, but repeat sources hit the memo (and
                // the persistent store when the server has one).
                match cfg.engine.prepare(&job.source, 1) {
                    Ok(p) => {
                        prepared.push(p);
                        prepared_names.push(job.name.clone());
                        prepared_jobs.push(ji);
                        outcomes.push(None); // filled from the scored batch
                    }
                    Err(e) => outcomes.push(Some(JobOutcome::ParseError(
                        error_json(&job.name, &e).to_string(),
                    ))),
                }
            }
        }

        // Group the prepared items per model slot: a job's choice lists one
        // slot (Single) or several (Ensemble); each slot's group is scored
        // as one batched forward. Slot order is ascending, so grouping is
        // deterministic.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); registry.len()];
        for (pi, &ji) in prepared_jobs.iter().enumerate() {
            match &batch[ji].choice {
                ModelChoice::Single(s) => groups[*s].push(pi),
                ModelChoice::Ensemble(members) => {
                    for &s in members {
                        groups[s].push(pi);
                    }
                }
            }
        }
        let forward_started = Instant::now();
        // (slot, prepared index) → scored outcome.
        let mut scored: std::collections::HashMap<(usize, usize), SlotOutcome> =
            std::collections::HashMap::new();
        {
            let _t = sevuldet::trace::span!("serve.forward");
            for (slot, idxs) in groups.iter().enumerate() {
                if idxs.is_empty() {
                    continue;
                }
                let group_started = Instant::now();
                let out = if idxs.len() == prepared.len() {
                    score_batch_isolated(
                        &mut replicas[slot],
                        &models[slot],
                        &prepared,
                        &prepared_names,
                        cfg.inner_jobs,
                        metrics,
                    )
                } else {
                    let sub: Vec<PreparedSource> =
                        idxs.iter().map(|&i| prepared[i].clone()).collect();
                    let sub_names: Vec<String> =
                        idxs.iter().map(|&i| prepared_names[i].clone()).collect();
                    score_batch_isolated(
                        &mut replicas[slot],
                        &models[slot],
                        &sub,
                        &sub_names,
                        cfg.inner_jobs,
                        metrics,
                    )
                };
                let stats = metrics.model_stats(registry.name_of(slot));
                stats.scans.fetch_add(idxs.len() as u64, Ordering::Relaxed);
                stats
                    .forward_duration
                    .observe(group_started.elapsed().as_secs_f64());
                for (&pi, o) in idxs.iter().zip(out) {
                    scored.insert((slot, pi), o);
                }
            }
        }
        if !prepared.is_empty() {
            metrics
                .forward_duration
                .observe(forward_started.elapsed().as_secs_f64());
        }
        let _respond_span = sevuldet::trace::span!("serve.respond");
        let mut pi = 0usize;
        for (job, outcome) in batch.into_iter().zip(outcomes) {
            let outcome = outcome.unwrap_or_else(|| {
                let item = pi;
                pi += 1;
                assemble_job_outcome(
                    &job,
                    item,
                    &prepared[item],
                    &mut scored,
                    &mut replicas,
                    &models,
                    registry,
                )
            });
            if matches!(outcome, JobOutcome::Report(_) | JobOutcome::ParseError(_)) {
                metrics
                    .scan_latency
                    .observe(job.enqueued.elapsed().as_secs_f64());
            }
            // A handler that gave up (client timeout) just drops its
            // receiver; that is not a worker error.
            job.resp.send(outcome);
        }
    }
}

/// Builds one prepared job's final outcome out of the per-model scored map:
/// a single model's report (labeled when the request picked a model), or an
/// ensemble combination, with the optional Fig. 6 explanation attached from
/// the (first member) model's warm replica. `prepared` is the job's
/// prepared source (the explanation reads its gadget tokens).
fn assemble_job_outcome(
    job: &ScanJob,
    item: usize,
    prepared: &PreparedSource,
    scored: &mut std::collections::HashMap<(usize, usize), SlotOutcome>,
    replicas: &mut [Option<(u64, Detector)>],
    models: &[Arc<LoadedModel>],
    registry: &MultiRegistry,
) -> JobOutcome {
    let missing =
        || JobOutcome::Internal("scoring produced no result slot for a prepared job".into());
    let (mut report, explain_slot) = match &job.choice {
        ModelChoice::Single(s) => match scored.remove(&(*s, item)) {
            Some(SlotOutcome::Report(r)) => (r, *s),
            Some(SlotOutcome::Panicked) => return JobOutcome::Panicked,
            Some(SlotOutcome::Internal(msg)) => return JobOutcome::Internal(msg),
            None => return missing(),
        },
        ModelChoice::Ensemble(members) => {
            let mut member_reports: Vec<(String, ScanReport)> = Vec::with_capacity(members.len());
            for &s in members {
                match scored.remove(&(s, item)) {
                    Some(SlotOutcome::Report(r)) => {
                        member_reports.push((registry.name_of(s).to_string(), r));
                    }
                    Some(SlotOutcome::Panicked) => return JobOutcome::Panicked,
                    Some(SlotOutcome::Internal(msg)) => return JobOutcome::Internal(msg),
                    None => return missing(),
                }
            }
            match combine_ensemble(&member_reports) {
                Ok(r) => (r, members[0]),
                Err(e) => return JobOutcome::Internal(e.to_string()),
            }
        }
    };
    report.model = job.model_label.clone();
    if job.explain {
        // The explanation runs on the same pinned generation the scores came
        // from. A replica may have been dropped by panic isolation; refresh
        // it the same way scoring does. Explain forwards can in principle
        // panic on a poison input too — isolate them so a worker survives.
        let model = &models[explain_slot];
        let entry = &mut replicas[explain_slot];
        if entry.as_ref().map(|(v, _)| *v) != Some(model.version) {
            *entry = Some((model.version, model.detector.clone()));
        }
        let (_, detector) = entry.as_mut().expect("replica just installed");
        let attached = std::panic::catch_unwind(AssertUnwindSafe(|| {
            attach_explanations(detector, &mut report, prepared);
        }));
        if attached.is_err() {
            *entry = None;
            return JobOutcome::Panicked;
        }
    }
    JobOutcome::Report(report.to_json(&job.name).to_string())
}

/// Per-source result of one isolated batch forward.
#[derive(Debug)]
enum SlotOutcome {
    /// Scored normally.
    Report(ScanReport),
    /// Cornered as the poison request of a panicking batch.
    Panicked,
    /// The scoring pipeline returned a typed internal error ([`ScanError`]'s
    /// `Internal` variant) — reported once, cleanly, without riding the
    /// catch_unwind/bisection machinery.
    Internal(String),
}

/// Scores a prepared batch with panic isolation: the forward pass runs
/// under `catch_unwind`, and when it panics the batch is bisected and each
/// half retried, recursively, until the poison request is cornered alone —
/// it gets [`SlotOutcome::Panicked`] (answered 500 upstream); every other
/// request still gets its report. Because [`score_prepared_mut`] is
/// batching-invariant (pinned by the serve integration tests), the
/// surviving requests' reports are byte-identical to what the unsplit batch
/// would have produced.
///
/// A typed [`sevuldet::ScanError::Internal`] from the scorer is *not* a
/// panic: the whole batch is answered [`SlotOutcome::Internal`] directly —
/// one clean 500 per affected request, no bisection.
///
/// The worker's warm replica may be torn mid-forward by a panic, so it is
/// dropped and re-cloned from the batch's pinned model `Arc` before any
/// retry. `worker_panics` counts every caught panic (so one poison request
/// in a batch of N bumps it ~log2(N) times as the bisection corners it).
fn score_batch_isolated(
    replica: &mut Option<(u64, Detector)>,
    model: &Arc<LoadedModel>,
    prepared: &[PreparedSource],
    names: &[String],
    inner_jobs: usize,
    metrics: &Metrics,
) -> Vec<SlotOutcome> {
    if prepared.is_empty() {
        return Vec::new();
    }
    // Refresh the replica only when missing (first batch, or dropped after
    // a panic) or when a reload bumped the version; the model `Arc`
    // snapshot pins which generation this whole batch uses.
    if replica.as_ref().map(|(v, _)| *v) != Some(model.version) {
        *replica = Some((model.version, model.detector.clone()));
    }
    let result = {
        let (_, detector) = replica.as_mut().expect("replica just installed");
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            // Test hook: `worker_forward=panic@NAME` simulates a poison
            // request without needing a real model-crashing input.
            faults::hit_hint("worker_forward", &names.join("\n"));
            score_prepared_mut(detector, prepared, inner_jobs)
        }))
    };
    match result {
        Ok(Ok(reports)) if reports.len() == prepared.len() => {
            reports.into_iter().map(SlotOutcome::Report).collect()
        }
        Ok(Ok(reports)) => {
            // One report per prepared source is the scorer's contract;
            // answer every slot with a clean 500 rather than guessing at an
            // alignment.
            let msg = format!(
                "scorer returned {} reports for {} sources",
                reports.len(),
                prepared.len()
            );
            (0..prepared.len())
                .map(|_| SlotOutcome::Internal(msg.clone()))
                .collect()
        }
        Ok(Err(e)) => {
            let msg = e.to_string();
            (0..prepared.len())
                .map(|_| SlotOutcome::Internal(msg.clone()))
                .collect()
        }
        Err(_) => {
            metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            // The replica was mid-forward when the panic unwound; its
            // internal scratch state is suspect, so rebuild before retrying.
            *replica = None;
            if prepared.len() == 1 {
                return vec![SlotOutcome::Panicked];
            }
            let mid = prepared.len() / 2;
            let mut out = score_batch_isolated(
                replica,
                model,
                &prepared[..mid],
                &names[..mid],
                inner_jobs,
                metrics,
            );
            out.extend(score_batch_isolated(
                replica,
                model,
                &prepared[mid..],
                &names[mid..],
                inner_jobs,
                metrics,
            ));
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> ScanJob {
        ScanJob {
            name: "t".into(),
            source: String::new(),
            choice: ModelChoice::Single(0),
            model_label: None,
            explain: false,
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(5),
            resp: Responder::new(|_| {}),
        }
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let metrics = Arc::new(Metrics::default());
        let q = JobQueue::new(2, metrics.clone());
        assert!(q.submit(job()).is_ok());
        assert!(q.submit(job()).is_ok());
        let (err, _rejected) = q.submit(job()).unwrap_err();
        assert_eq!(err, SubmitError::Full);
        assert_eq!(metrics.rejected_queue_full.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 2);
        q.close();
        let (err, _rejected) = q.submit(job()).unwrap_err();
        assert_eq!(err, SubmitError::ShuttingDown);
    }
}
