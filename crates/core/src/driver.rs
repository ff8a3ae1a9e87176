//! Higher-level measurement drivers built on [`Experiment`]:
//! saturation-point search.

use crate::error::CoreError;
use crate::experiments::Experiment;
use crate::system::SystemConfig;

/// Finds the saturation injection load by bisection: the smallest load
/// (within `tolerance`, in packets/core/cycle) at which mean latency
/// exceeds `threshold ×` the zero-load latency — the standard definition
/// behind "the network saturates at X" statements like the paper's Fig 3
/// discussion.
///
/// # Errors
///
/// Propagates experiment failures; returns
/// [`CoreError::InvalidParameter`] for a degenerate bracket.
pub fn find_saturation_load(
    config: &SystemConfig,
    threshold: f64,
    tolerance: f64,
) -> Result<f64, CoreError> {
    if threshold <= 1.0 || tolerance <= 0.0 {
        return Err(CoreError::InvalidParameter {
            what: "threshold must exceed 1.0 and tolerance must be positive".into(),
        });
    }
    let base_load = 1e-4;
    let base = Experiment::uniform_random(config, base_load).run()?;
    let Some(zero_load_latency) = base.avg_latency_cycles else {
        return Err(CoreError::InvalidParameter {
            what: "no packets measured at the zero-load anchor".into(),
        });
    };
    let saturated = |load: f64| -> Result<bool, CoreError> {
        let o = Experiment::uniform_random(config, load).run()?;
        Ok(match o.avg_latency_cycles {
            Some(l) => l > threshold * zero_load_latency,
            // Nothing measured: hopelessly saturated.
            None => true,
        })
    };
    let (mut lo, mut hi) = (base_load, 1.0f64);
    if saturated(lo)? {
        return Ok(lo);
    }
    while hi - lo > tolerance {
        let mid = (lo + hi) / 2.0;
        if saturated(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_topology::Architecture;

    fn quick(arch: Architecture) -> SystemConfig {
        SystemConfig::xcym(4, 4, arch).quick_test_profile()
    }

    #[test]
    fn saturation_load_is_found_and_bracketed() {
        // The relative-threshold criterion needs a longer window than
        // the quick profile to anchor its zero-load latency reliably
        // (the 1e-4 anchor sees only ~10 packets in 1 500 cycles, so
        // the knee estimate is anchor-noise-limited below ~4 000).
        let windows = |arch| {
            let mut cfg = quick(arch);
            cfg.warmup_cycles = 500;
            cfg.measure_cycles = 4_000;
            cfg
        };
        let wireless =
            find_saturation_load(&windows(Architecture::Wireless), 3.0, 0.01).unwrap();
        assert!(wireless > 0.0 && wireless < 1.0, "got {wireless}");
        // Wireless saturates at no lower an injection load than the
        // interposer (the Fig 3 claim).  The substrate is excluded: its
        // post-saturation latency plateaus from survivor bias, which the
        // threshold criterion cannot bracket.
        let interposer =
            find_saturation_load(&windows(Architecture::Interposer), 3.0, 0.01).unwrap();
        assert!(
            wireless >= interposer,
            "wireless {wireless} vs interposer {interposer}"
        );
    }

    #[test]
    fn saturation_rejects_bad_parameters() {
        assert!(find_saturation_load(&quick(Architecture::Wireless), 0.5, 0.01).is_err());
        assert!(find_saturation_load(&quick(Architecture::Wireless), 3.0, 0.0).is_err());
    }
}
