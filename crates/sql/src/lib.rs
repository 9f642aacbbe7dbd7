//! KathDB SQL subset.
//!
//! FAO function bodies "can contain a SQL query over a table" (§4). This
//! crate provides the lexer, parser, AST (with a printer that round-trips),
//! and an executor that lowers SQL onto the relational substrate in
//! `kath-storage`. The subset covers what KathDB's coder agent emits:
//! SELECT (projection, computed columns, DISTINCT), equi-JOIN / LEFT JOIN,
//! WHERE, GROUP BY with COUNT/SUM/AVG/MIN/MAX, ORDER BY (columns or
//! computed expressions), LIMIT, plus CREATE TABLE, INSERT, and DROP TABLE
//! for setup. Mutating statements lower to [`kath_storage::WalRecord`]s
//! ([`plan_mutation`] / [`apply_mutation`]) so the durability layer can
//! log them write-ahead.
//!
//! There is one way to run a SELECT: [`run_select_auto_guarded`] plans the
//! statement once and runs it on the one drive — morsels, a per-morsel
//! pipeline, one merge, one operator tail — at `(mode, threads)`
//! (docs/execution.md, "One plan, one drive").
//! [`execute`] is the convenience for statement text with defaults.
//!
//! The `ORDER BY SIMILARITY(col, 'query') DESC LIMIT k` shape is
//! recognized as the paper's §2.2 similarity search and served by a top-k
//! over the column's vector index, whose Flat/IVF implementation the cost
//! model picks per query from the table's cardinality.

#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;
mod plan;

pub use ast::{AggCall, JoinClause, OrderKey, Select, SelectItem, SqlBinOp, SqlExpr, Statement};
pub use lexer::{tokenize, LexError, Token};
pub use parser::{parse_expr, parse_select, parse_statement, SqlParseError};
pub use plan::{
    apply_mutation, execute, plan_mutation, run_select_auto_guarded, to_expr, SelectStats, SqlError,
};
