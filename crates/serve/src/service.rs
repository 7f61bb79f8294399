//! The live job service: one submission at a time, from any number of
//! threads, over one content-addressed [`ResultCache`].
//!
//! Whole workloads — a course week, a semester — go through
//! [`Cluster::run_day`](crate::cluster::Cluster::run_day), whose
//! reports are pure functions of the arrivals. [`Service::call`] is the
//! path a network front-end would take per request: concurrent
//! identical calls compute once (single-flight) and share the leader's
//! `Arc`, and a panicking leader releases its claim so joiners retry
//! instead of hanging.

use std::sync::Arc;

use crate::cache::{CacheEvent, CacheStats, ResultCache};
use crate::cluster::RejectReason;
use crate::exec;
use crate::result::JobResult;
use crate::spec::JobSpec;

/// The live single-submission service over one result cache.
#[derive(Debug)]
pub struct Service {
    cache: ResultCache,
}

impl Service {
    /// Creates a service whose cache holds at most `cache_capacity`
    /// results; 0 disables caching and single-flight.
    pub fn new(cache_capacity: usize) -> Self {
        Service {
            cache: ResultCache::new(cache_capacity),
        }
    }

    /// Serves one submission with single-flight semantics: concurrent
    /// identical calls compute once and share the result.
    pub fn call(&self, spec: &JobSpec) -> Result<(Arc<JobResult>, CacheEvent), RejectReason> {
        spec.validate().map_err(RejectReason::InvalidSpec)?;
        Ok(self
            .cache
            .get_or_compute(spec.digest(), || exec::execute(spec)))
    }

    /// Counters of the underlying result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}
