//! SQL abstract syntax tree and its printer.
//!
//! The printer matters: KathDB persists generated SQL function bodies to
//! disk and shows them to users during debugging (§5), so the AST must
//! round-trip through text (`parse(print(ast)) == ast`, property-tested).

use std::fmt;

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified (`t.col`).
    Column(Option<String>, String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// NULL literal.
    Null,
    /// Binary operation.
    Binary(SqlBinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// `NOT expr`
    Not(Box<SqlExpr>),
    /// `-expr`
    Neg(Box<SqlExpr>),
    /// `expr IS NULL` / `expr IS NOT NULL`
    IsNull(Box<SqlExpr>, bool),
    /// Scalar function call.
    Call(String, Vec<SqlExpr>),
    /// Aggregate call; `None` argument means `COUNT(*)`.
    Agg(AggCall, Option<Box<SqlExpr>>),
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggCall {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggCall {
    /// SQL spelling.
    pub fn name(&self) -> &'static str {
        match self {
            AggCall::Count => "COUNT",
            AggCall::Sum => "SUM",
            AggCall::Avg => "AVG",
            AggCall::Min => "MIN",
            AggCall::Max => "MAX",
        }
    }
}

/// Binary operators (SQL spellings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl SqlBinOp {
    fn symbol(&self) -> &'static str {
        match self {
            SqlBinOp::Add => "+",
            SqlBinOp::Sub => "-",
            SqlBinOp::Mul => "*",
            SqlBinOp::Div => "/",
            SqlBinOp::Mod => "%",
            SqlBinOp::Eq => "=",
            SqlBinOp::Ne => "<>",
            SqlBinOp::Lt => "<",
            SqlBinOp::Le => "<=",
            SqlBinOp::Gt => ">",
            SqlBinOp::Ge => ">=",
            SqlBinOp::And => "AND",
            SqlBinOp::Or => "OR",
        }
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `expr [AS alias]`
    Expr(SqlExpr, Option<String>),
}

/// A `JOIN` clause (equi-joins only, matching KathDB's generated bodies).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Joined table.
    pub table: String,
    /// Left join if true, inner otherwise.
    pub left_outer: bool,
    /// `ON left = right` column pair.
    pub on_left: (Option<String>, String),
    /// Right column of the ON condition.
    pub on_right: (Option<String>, String),
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// The sort expression: a plain column, or any scalar expression
    /// (computed into a hidden sort column by the planner — the shape
    /// `SIMILARITY(col, 'query')` additionally unlocks the top-k vector
    /// scan).
    pub expr: SqlExpr,
    /// Descending if true.
    pub desc: bool,
}

impl OrderKey {
    /// A key sorting on a bare column name.
    pub fn column(name: impl Into<String>, desc: bool) -> Self {
        OrderKey {
            expr: SqlExpr::Column(None, name.into()),
            desc,
        }
    }

    /// The bare column name this key sorts on, if it is one.
    pub fn as_column(&self) -> Option<&str> {
        match &self.expr {
            SqlExpr::Column(None, c) => Some(c),
            _ => None,
        }
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `DISTINCT` modifier.
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM table.
    pub from: String,
    /// JOIN clauses, applied in order.
    pub joins: Vec<JoinClause>,
    /// WHERE predicate.
    pub where_clause: Option<SqlExpr>,
    /// GROUP BY column names.
    pub group_by: Vec<String>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT count.
    pub limit: Option<usize>,
}

impl Select {
    /// The tables the statement reads: FROM, then each JOIN in order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.from.as_str()).chain(self.joins.iter().map(|j| j.table.as_str()))
    }
}

/// Any supported statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT query.
    Select(Select),
    /// `CREATE TABLE name (col TYPE, ...)`
    CreateTable {
        /// Table name.
        name: String,
        /// `(column, type name)` pairs.
        columns: Vec<(String, String)>,
    },
    /// `INSERT INTO name VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Row literals.
        rows: Vec<Vec<SqlExpr>>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table to remove.
        name: String,
    },
}

impl fmt::Display for SqlExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlExpr::Column(None, c) => write!(f, "{c}"),
            SqlExpr::Column(Some(t), c) => write!(f, "{t}.{c}"),
            SqlExpr::Int(i) => write!(f, "{i}"),
            SqlExpr::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            SqlExpr::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            SqlExpr::Bool(true) => write!(f, "TRUE"),
            SqlExpr::Bool(false) => write!(f, "FALSE"),
            SqlExpr::Null => write!(f, "NULL"),
            SqlExpr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.symbol()),
            SqlExpr::Not(e) => write!(f, "(NOT {e})"),
            SqlExpr::Neg(e) => write!(f, "(- {e})"),
            SqlExpr::IsNull(e, false) => write!(f, "({e} IS NULL)"),
            SqlExpr::IsNull(e, true) => write!(f, "({e} IS NOT NULL)"),
            SqlExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            SqlExpr::Agg(agg, None) => write!(f, "{}(*)", agg.name()),
            SqlExpr::Agg(agg, Some(e)) => write!(f, "{}({e})", agg.name()),
        }
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Wildcard => write!(f, "*")?,
                SelectItem::Expr(e, None) => write!(f, "{e}")?,
                SelectItem::Expr(e, Some(a)) => write!(f, "{e} AS {a}")?,
            }
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            let kind = if j.left_outer { "LEFT JOIN" } else { "JOIN" };
            let qual = |q: &Option<String>, c: &String| match q {
                Some(t) => format!("{t}.{c}"),
                None => c.clone(),
            };
            write!(
                f,
                " {kind} {} ON {} = {}",
                j.table,
                qual(&j.on_left.0, &j.on_left.1),
                qual(&j.on_right.0, &j.on_right.1)
            )?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}{}", k.expr, if k.desc { " DESC" } else { " ASC" })?;
            }
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::CreateTable { name, columns } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, (c, t)) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c} {t}")?;
                }
                write!(f, ")")
            }
            Statement::Insert { table, rows } => {
                write!(f, "INSERT INTO {table} VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, v) in row.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
        }
    }
}
