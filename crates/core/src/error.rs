//! Error type for the framework crate.

use std::error::Error;
use std::fmt;

use wimnet_noc::NocError;
use wimnet_routing::RoutingError;
use wimnet_topology::TopologyError;

/// Errors raised while building or running a multichip experiment.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Topology construction failed.
    Topology(TopologyError),
    /// Route computation failed.
    Routing(RoutingError),
    /// Engine construction or stepping failed.
    Noc(NocError),
    /// The simulation made no forward progress — a deadlock with the
    /// chosen (non-guaranteed) routing policy, or a saturated wireless
    /// configuration without an attached medium.
    Stalled {
        /// Cycle at which the watchdog gave up.
        cycle: u64,
    },
    /// An experiment parameter is out of range.
    InvalidParameter {
        /// Description of the offending parameter.
        what: String,
    },
    /// The on-disk result catalog could not be created or written.
    /// (Unreadable/corrupt *entries* are not errors — the catalog
    /// quarantines them and reports a miss; see `catalog::Catalog`.)
    Catalog {
        /// Description of the failing catalog operation.
        what: String,
    },
    /// A checkpoint could not be taken, written, or restored.
    /// (Unreadable/corrupt on-disk *snapshots* are not errors — the
    /// store quarantines them and reports a miss; see
    /// `checkpoint::CheckpointStore`.)
    Checkpoint {
        /// Description of the failing checkpoint operation.
        what: String,
    },
    /// The simulation of one sweep point panicked.  The pool catches
    /// the panic on the worker that ran the point and reports it as
    /// that point's error, so its siblings' outcomes survive.
    Panicked {
        /// The panic message.
        what: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Topology(e) => write!(f, "topology: {e}"),
            CoreError::Routing(e) => write!(f, "routing: {e}"),
            CoreError::Noc(e) => write!(f, "engine: {e}"),
            CoreError::Stalled { cycle } => {
                write!(f, "simulation stalled at cycle {cycle}")
            }
            CoreError::InvalidParameter { what } => {
                write!(f, "invalid parameter: {what}")
            }
            CoreError::Catalog { what } => {
                write!(f, "result catalog: {what}")
            }
            CoreError::Checkpoint { what } => {
                write!(f, "checkpoint store: {what}")
            }
            CoreError::Panicked { what } => write!(f, "simulation panicked: {what}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Topology(e) => Some(e),
            CoreError::Routing(e) => Some(e),
            CoreError::Noc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TopologyError> for CoreError {
    fn from(e: TopologyError) -> Self {
        CoreError::Topology(e)
    }
}

impl From<RoutingError> for CoreError {
    fn from(e: RoutingError) -> Self {
        CoreError::Routing(e)
    }
}

impl From<NocError> for CoreError {
    fn from(e: NocError) -> Self {
        CoreError::Noc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_sources() {
        let e: CoreError = TopologyError::ZeroSized { what: "chips" }.into();
        assert!(matches!(e, CoreError::Topology(_)));
        assert!(e.source().is_some());
        let e: CoreError = RoutingError::EmptyGraph.into();
        assert!(format!("{e}").contains("routing"));
        let e = CoreError::Stalled { cycle: 12 };
        assert!(e.source().is_none());
        assert!(format!("{e}").contains("12"));
    }
}
