//! What rule evaluation shares: user-defined functions, firings and the
//! operators of constraints and assignments.
//!
//! Rules are evaluated by compiled plans ([`crate::plan`]). A [`Firing`]
//! carries the head tuple *and* the slow-changing tuples the join
//! consumed, in body order — exactly the information the provenance
//! recorders need. [`apply_binop`] and [`compare`] give arithmetic and
//! comparisons one meaning, and one set of error messages, wherever an
//! expression is evaluated.

use std::sync::Arc;

use dpc_common::{Error, FastMap, Result, Tuple, Value};
use dpc_ndlog::{BinOp, CmpOp};

/// A user-defined function callable from rule bodies (e.g.
/// `f_isSubDomain`).
pub type UserFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Registry of user-defined functions, shared by all nodes.
#[derive(Clone, Default)]
pub struct FnRegistry {
    fns: FastMap<String, UserFn>,
}

impl FnRegistry {
    /// An empty registry.
    pub fn new() -> FnRegistry {
        FnRegistry::default()
    }

    /// Register `f` under `name` (conventionally `f_`-prefixed).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.fns.insert(name.into(), Arc::new(f));
    }

    /// Look up a function.
    pub fn get(&self, name: &str) -> Option<&UserFn> {
        self.fns.get(name)
    }
}

impl std::fmt::Debug for FnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnRegistry")
            .field("fns", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// One firing of a rule: the derived head tuple and the slow-changing
/// tuples used by the join (in body order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Firing {
    /// The derived head tuple.
    pub head: Tuple,
    /// Slow-changing tuples joined by this firing, in body-atom order.
    pub slow: Vec<Tuple>,
}

/// Apply an arithmetic operator to two evaluated operands. Only integers
/// take arithmetic; overflow and division by zero are errors.
pub fn apply_binop(op: BinOp, lv: &Value, rv: &Value) -> Result<Value> {
    let (Value::Int(a), Value::Int(b)) = (lv, rv) else {
        return Err(Error::Eval(format!(
            "arithmetic `{op}` requires integers, got {lv} and {rv}"
        )));
    };
    let out = match op {
        BinOp::Add => a.checked_add(*b),
        BinOp::Sub => a.checked_sub(*b),
        BinOp::Mul => a.checked_mul(*b),
        BinOp::Div => {
            if *b == 0 {
                return Err(Error::Eval("division by zero".into()));
            }
            a.checked_div(*b)
        }
    }
    .ok_or_else(|| Error::Eval(format!("arithmetic overflow in `{a} {op} {b}`")))?;
    Ok(Value::Int(out))
}

/// Evaluate a comparison between two values. Ordering comparisons need
/// operands of the same variant (integers, strings or addresses).
pub fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool> {
    match op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Ne => Ok(l != r),
        _ => {
            // Ordering comparisons require same-variant operands; anything
            // else is a program bug worth surfacing, not silently false.
            let same = matches!(
                (l, r),
                (Value::Int(_), Value::Int(_))
                    | (Value::Str(_), Value::Str(_))
                    | (Value::Addr(_), Value::Addr(_))
            );
            if !same {
                return Err(Error::Eval(format!("cannot order {l} and {r} with `{op}`")));
            }
            Ok(match op {
                CmpOp::Lt => l < r,
                CmpOp::Le => l <= r,
                CmpOp::Gt => l > r,
                CmpOp::Ge => l >= r,
                CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
            })
        }
    }
}
