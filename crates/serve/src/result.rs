//! The serialized outcome of one executed job.

/// What a job computes: a rendered payload plus the deterministic
/// metrics snapshot of the execution, both serialized. Stored whole in
/// the cache so a hit returns bytes identical to the cold computation.
///
/// The digest is fixed when [`JobResult::new`] builds the result and is
/// never recomputed: results are shared immutably behind `Arc` by the
/// caches and every join, so the fields never change after
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The engine's rendered output (report text, result table, study
    /// digest line — whatever the job kind documents).
    pub payload: String,
    /// The job's [`obs::MetricsSnapshot::to_json_with_digest`] export,
    /// captured from a registry private to the job so cache hits
    /// replay the exact metrics of the original computation.
    pub metrics_json: String,
    digest: u64,
}

impl JobResult {
    /// Builds a result and fixes its digest: FNV-1a over both
    /// serialized fields, each prefixed by its little-endian `u64`
    /// length so the field boundary is unambiguous.
    pub fn new(payload: String, metrics_json: String) -> Self {
        let mut bytes = Vec::with_capacity(8 + payload.len() + 8 + metrics_json.len());
        bytes.extend((payload.len() as u64).to_le_bytes());
        bytes.extend(payload.as_bytes());
        bytes.extend((metrics_json.len() as u64).to_le_bytes());
        bytes.extend(metrics_json.as_bytes());
        let digest = obs::trace::fnv1a(&bytes);
        JobResult {
            payload,
            metrics_json,
            digest,
        }
    }

    /// The digest fixed at construction: the per-job leaf of the day
    /// and semester determinism digests.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_unambiguously() {
        let a = JobResult::new("ab".into(), "c".into());
        let b = JobResult::new("a".into(), "bc".into());
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // The length-prefixed FNV-1a formula, pinned: every day,
        // semester and cache digest is built on this value.
        assert_eq!(a.digest(), 0x7e60_470b_f599_cad6);
    }
}
