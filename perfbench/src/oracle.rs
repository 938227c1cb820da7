//! The reference oracle, computed before set-up and outside `setup_s`:
//! answer fingerprints from a fresh serial cache-off engine, and
//! `rtlsim::equiv` on the smallest and fastest alternatives of every
//! distinct spec.

use cells::CellLibrary;
use dtas::net::WireDesignSet;
use dtas::{DesignSet, Dtas, DtasConfig, SynthRequest};
use genus::spec::ComponentSpec;
use rtlsim::equiv::check_implementation;
use std::collections::BTreeSet;

/// Random vectors (cycles, for sequential parts) per equivalence check.
const EQUIV_VECTORS: usize = 24;

pub struct Oracle {
    /// Reference fingerprint per request, by request index.
    pub fingerprints: Vec<u64>,
    /// Equivalence-check failures, one line each.
    pub equiv_failures: Vec<String>,
    pub distinct_specs: usize,
}

pub fn fingerprint(set: &DesignSet) -> u64 {
    WireDesignSet::of(set).fingerprint()
}

impl Oracle {
    /// # Errors
    ///
    /// When a request has no implementation: the generator must only draw
    /// implementable specs, so that is a benchmark defect, not a program
    /// failure.
    pub fn build(
        library: &CellLibrary,
        requests: &[SynthRequest],
        seed: u64,
    ) -> Result<Self, String> {
        let reference = Dtas::builder(library.clone())
            .config(DtasConfig {
                threads: Some(1),
                cache: false,
                ..DtasConfig::default()
            })
            .build();
        let mut fingerprints = Vec::with_capacity(requests.len());
        let mut checked: BTreeSet<ComponentSpec> = BTreeSet::new();
        let mut equiv_failures = Vec::new();
        for request in requests {
            let set = reference.run(request.clone()).map_err(|e| {
                format!(
                    "drawn request {} has no reference answer: {e}",
                    request.spec()
                )
            })?;
            fingerprints.push(fingerprint(&set));
            if !checked.insert(request.spec().clone()) {
                continue;
            }
            let ends = [set.smallest(), set.fastest()];
            for alt in ends.into_iter().flatten() {
                if let Err(e) = check_implementation(&alt.implementation, EQUIV_VECTORS, seed) {
                    equiv_failures.push(format!("{}: {e}", request.spec()));
                }
            }
        }
        Ok(Oracle {
            fingerprints,
            equiv_failures,
            distinct_specs: checked.len(),
        })
    }
}
