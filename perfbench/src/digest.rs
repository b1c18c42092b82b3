//! Digests of the virtual-time outputs of one workload iteration.
//!
//! Every iteration of a run uses the same seed, so every iteration must
//! produce the same digest. A digest that differs from the run's first
//! counts as a failed run.

use std::fmt;

/// The virtual outputs of one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimDigest {
    /// Simulated latency (makespan), ns.
    pub latency_ns: u64,
    /// Simulated cost, micro-dollars.
    pub cost_micros: i64,
    /// DES events dispatched.
    pub events: u64,
    /// Pipeline runs completed inside the simulation.
    pub runs: u64,
    /// CRC-32 of the Chrome trace export, where the sim was traced.
    pub trace_crc: Option<u32>,
}

impl fmt::Display for SimDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "latency_ns={} cost_micros={} events={} runs={}",
            self.latency_ns, self.cost_micros, self.events, self.runs
        )?;
        if let Some(crc) = self.trace_crc {
            write!(f, " crc={:08x}", crc)?;
        }
        Ok(())
    }
}

/// Compares an iteration's digests with the reference iteration's.
///
/// # Errors
/// A message naming the first simulation whose outputs differ.
pub fn compare(reference: &[SimDigest], got: &[SimDigest]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{} simulations, the reference iteration had {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if r != g {
            return Err(format!("simulation {}: got {}, reference {}", i, g, r));
        }
    }
    Ok(())
}

/// FNV-1a over every field of every digest: one number to eyeball.
pub fn fingerprint(digests: &[SimDigest]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in digests {
        eat(d.latency_ns);
        eat(d.cost_micros as u64);
        eat(d.events);
        eat(d.runs);
        eat(d.trace_crc.map_or(u64::MAX, u64::from));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(latency_ns: u64, trace_crc: Option<u32>) -> SimDigest {
        SimDigest {
            latency_ns,
            cost_micros: 11_251,
            events: 1_000,
            runs: 1,
            trace_crc,
        }
    }

    #[test]
    fn identical_iterations_compare_equal() {
        let a = vec![d(75, None), d(147, None)];
        assert_eq!(compare(&a, &a.clone()), Ok(()));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn any_field_difference_is_reported() {
        let a = vec![d(75, Some(1)), d(147, Some(2))];
        let mut b = a.clone();
        b[1].trace_crc = Some(3);
        let err = compare(&a, &b).unwrap_err();
        assert!(err.starts_with("simulation 1:"), "{err}");
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let mut c = a.clone();
        c[0].events += 1;
        assert!(compare(&a, &c).is_err());
    }

    #[test]
    fn a_missing_simulation_is_reported() {
        let a = vec![d(75, None), d(147, None)];
        assert!(compare(&a, &a[..1]).is_err());
    }
}
