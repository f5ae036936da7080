//! A job's one terminal outcome and the handle its submitter waits on.
//!
//! The supervisor resolves each job's cell exactly once and keeps no
//! clock; how long to wait for that is the waiter's choice.

use fm_engine::MiningResult;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The single terminal outcome of a submitted job.
// `Finished` dwarfs the other variants, but one outcome exists per job
// (not per task) and boxing would tax every consumer of the common case.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran to a final [`MiningResult`] (any
    /// [`RunStatus`](fm_engine::RunStatus), including budget stops and
    /// cancellation).
    Finished(MiningResult),
    /// Admission control shed the job; `reason` names the violated limit.
    Rejected { reason: String },
    /// Shutdown drained the job mid-run; `checkpoint` is the durable
    /// snapshot when a spool directory was given and the write succeeded.
    Drained { checkpoint: Option<PathBuf> },
}

/// Write-once cell carrying a job's terminal outcome to its handle.
#[derive(Default)]
pub(crate) struct OutcomeCell {
    slot: Mutex<Option<JobOutcome>>,
    done: Condvar,
}

impl OutcomeCell {
    pub(crate) fn resolve(&self, outcome: JobOutcome) {
        let mut slot = self.slot.lock().expect("job outcome lock poisoned");
        assert!(slot.is_none(), "job resolved twice — supervisor state machine bug");
        *slot = Some(outcome);
        self.done.notify_all();
    }

    fn wait(&self) -> JobOutcome {
        let mut slot = self.slot.lock().expect("job outcome lock poisoned");
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            slot = self.done.wait(slot).expect("job outcome lock poisoned");
        }
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let slot = self.slot.lock().expect("job outcome lock poisoned");
        let (slot, _) = self
            .done
            .wait_timeout_while(slot, timeout, |s| s.is_none())
            .expect("job outcome lock poisoned");
        slot.clone()
    }

    fn try_get(&self) -> Option<JobOutcome> {
        self.slot.lock().expect("job outcome lock poisoned").clone()
    }

    fn is_resolved(&self) -> bool {
        self.slot.lock().expect("job outcome lock poisoned").is_some()
    }
}

/// Caller-side handle to a submitted job. Clones wait on the same outcome.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) cell: Arc<OutcomeCell>,
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Block until the job resolves.
    pub fn wait(&self) -> JobOutcome {
        self.cell.wait()
    }

    /// Block until the job resolves or `timeout` passes, whichever is
    /// first: `None` means it is still unresolved. A resolution wakes the
    /// caller at once; the timeout only bounds how long it goes without
    /// looking at anything else (a termination latch, say).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.cell.wait_timeout(timeout)
    }

    /// The outcome if the job has already resolved.
    pub fn try_outcome(&self) -> Option<JobOutcome> {
        self.cell.try_get()
    }

    /// Whether the job has resolved — [`JobHandle::try_outcome`] without
    /// the copy of the outcome.
    pub fn is_resolved(&self) -> bool {
        self.cell.is_resolved()
    }
}
