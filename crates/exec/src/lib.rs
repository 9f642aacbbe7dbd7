//! KathDB execution engine (§2.3, §5).
//!
//! Interprets FAO bodies against the catalog/media/model context, records
//! lineage per the dependency pattern, and keeps the human in the loop:
//! syntactic faults are self-repaired (reviewer diagnoses, rewriter patches,
//! `ver_id` bumps, execution resumes) while semantic anomalies are explained
//! and resolved with the user.

#![warn(missing_docs)]

mod context;
mod engine;
mod error;
mod interp;
mod monitor;

pub use context::{id_from_uri, ExecContext, Materialization, Published};
pub use engine::{ExecReport, ExecutionEngine, NodeTiming, PhysicalNode, PhysicalPlan};
pub use error::ExecError;
pub use interp::{execute_body, visual_interest, ExecOutcome};
pub use monitor::{AnomalyEvent, Monitor, RepairEvent};
