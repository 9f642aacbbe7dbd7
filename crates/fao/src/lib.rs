//! Function-as-Operator (FAO) — the paper's central abstraction (§4).
//!
//! Each logical-plan node is a [`FunctionSignature`] (emitted/ingested in
//! the exact JSON layout of Fig. 3); each physical implementation is a
//! structured [`FunctionBody`] stamped with a monotone `ver_id` in the
//! [`FunctionRegistry`], persisted to disk, and profiled with cost/accuracy
//! statistics for the optimizer.

#![warn(missing_docs)]

mod body;
mod compiled;
mod registry;
mod signature;

pub use body::{BodyError, FunctionBody, VisionImpl};
pub use compiled::{CompileRecords, Decision, Published, Record, RecordedCritique};
pub use registry::{FunctionEntry, FunctionRegistry, FunctionVersion, ProfileStats, RegistryError};
pub use signature::{FunctionSignature, SignatureError};
