//! Typed columnar evaluation of the scenario SELECT: the production
//! execution tier (see `docs/VECTORIZATION.md` for the two-tier story).
//!
//! The scalar tier ([`crate::executor`]) walks the AST once per possible
//! world — fine for a single instance, but fingerprint probing and Monte
//! Carlo estimation always evaluate the *same* query, under the *same*
//! parameter valuation, for a whole block of worlds (the canonical
//! fingerprint seeds, or a point's estimation worlds). This tier walks the
//! AST once for the entire block and carries a typed buffer per expression
//! node — a [`Column`] is a `Vec<f64>` / `Vec<i64>` / `Vec<bool>` plus a
//! [`NullMask`] — lowering each node to a straight-line kernel from
//! [`crate::column`] over those buffers. Mixed or string data drops to the
//! [`Column::Boxed`] representation and per-value evaluation for that node
//! ([`ColumnarStats::fallbacks`] counts how often), then re-sniffs back to
//! a typed buffer so one odd node does not unbox the rest of the walk.
//!
//! ## Bit-identity contract
//!
//! This tier is *defined* by bit-identity with the scalar walker: per
//! world, same outputs, same VG substream derivation `(world, function,
//! call index)`, same error classes and messages. Three details of the
//! walk make that hold:
//!
//! * **Per-world call counters.** The scalar tier derives each VG call's
//!   substream from `(world, function, call index)`, where the call index
//!   counts the VG calls *that world actually executed*. The block walk
//!   keeps one counter per world slot and bumps only the worlds reaching
//!   a call site, so conditional evaluation never desynchronizes the seed
//!   derivation.
//! * **Lazy masks.** `CASE` arms, `AND`/`OR` right-hand sides and the
//!   scalar tier's short-circuit rules are reproduced with *selection
//!   vectors*: a sub-expression is evaluated only for the worlds whose
//!   control flow reaches it, exactly as the per-world walk would. The
//!   selection every walk starts under — the whole block — is no vector
//!   at all: a node under it reads an alias in place instead of
//!   gathering it, and a single-`WHEN` `CASE` whose arms are literals,
//!   parameters or aliases blends them by its condition's truth mask,
//!   because evaluating such an arm for a lane no world reaches it on
//!   cannot draw, promote or fail. Any other arm narrows the selection
//!   as before ([`ColumnarStats::gathers`] counts the alias reads that
//!   then copy; `docs/VECTORIZATION.md`, *Dense vs selected*).
//! * **Left-to-right alias scoping.** Select items still evaluate in
//!   declaration order and later items see earlier aliases — as whole
//!   columns rather than scalars.
//!
//! And two consequences shape the kernels:
//!
//! * integer arithmetic must detect overflow, because the scalar tier
//!   promotes exactly the overflowing lane to float — the whole node then
//!   re-runs through per-value promotion (the scalar executor's own
//!   `apply_binop`);
//! * `Int`-vs-`Int` comparisons widen through `f64` (with its precision
//!   loss above 2^53) because `Value::sql_cmp` does.
//!
//! ## NULL lives in the mask
//!
//! Inside this tier SQL NULL is *only* ever mask state; data lanes of
//! NULL slots are meaningless (zeroed or stale) and never read. A NaN in
//! a valid data lane is a genuine sample, distinct from NULL, until
//! [`to_f64_samples`] — the tier's single NULL↔NaN conversion point.
//!
//! VG calls go through [`VgRegistry::invoke_batch_columnar`]: one
//! *physical* call per (call site, block), one *logical* invocation per
//! world for the catalog's accounting. Every model fills a `Vec<f64>`
//! lane (no per-world boxing at all) — its draw ledger pair, or one
//! `invoke` per world on that world's own stream — so a VG call is always
//! a typed kernel. A walk handed a [`LedgerStore`]
//! serves models that keep a draw ledger through
//! [`VgRegistry::invoke_batch_ledgered`] instead — same lane, same
//! accounting, each world's stream drawn once per store rather than once
//! per call.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use prophet_data::Value;
use prophet_vg::{LedgerCall, LedgerStore, SeedManager, VgCallF64, VgRegistry};

use crate::ast::{BinOp, Expr, SelectInto};
use crate::column::{
    add_f64, add_i64, blend, cmp_bool, cmp_f64, div_f64, div_i64, mask_to_nan, mul_f64, mul_i64,
    neg_f64, neg_i64, not_bool, rem_f64, rem_i64, sub_f64, sub_i64, truth_f64, truth_i64,
    widen_bool, widen_i64, Arm, NullMask,
};
use crate::error::{SqlError, SqlResult};
use crate::executor::{apply_binop, sample_f64, scalar_builtin};

/// One block-length column in the typed tier.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Float lanes + null mask.
    F64 {
        /// Data lanes (meaningless where masked).
        data: Vec<f64>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Integer lanes + null mask.
    I64 {
        /// Data lanes (zero where masked).
        data: Vec<i64>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Boolean lanes + null mask.
    Bool {
        /// Data lanes (false where masked).
        data: Vec<bool>,
        /// Validity mask.
        nulls: NullMask,
    },
    /// Every lane is SQL NULL (untyped; `CASE` with no ELSE, literal NULL).
    Null(usize),
    /// Mixed or string data: the boxed fallback representation.
    Boxed(Vec<Value>),
}

impl Column {
    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.view().len()
    }

    /// True when the column has zero lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstruct lane `i` as a boxed value (NULL from the mask).
    pub fn value_at(&self, i: usize) -> Value {
        self.view().value_at(i)
    }

    /// Reconstruct the whole column as boxed values.
    pub fn to_values(&self) -> Vec<Value> {
        self.view().to_values()
    }

    /// Sniff a boxed column back into the tightest typed representation:
    /// uniformly `Int`-or-NULL lanes become [`Column::I64`], and so on;
    /// anything mixed or stringly stays boxed.
    pub fn from_values(values: Vec<Value>) -> Column {
        let (mut ints, mut floats, mut bools, mut all_null) = (true, true, true, true);
        for v in &values {
            match v {
                Value::Null => {}
                Value::Int(_) => (floats, bools, all_null) = (false, false, false),
                Value::Float(_) => (ints, bools, all_null) = (false, false, false),
                Value::Bool(_) => (ints, floats, all_null) = (false, false, false),
                _ => (ints, floats, bools, all_null) = (false, false, false, false),
            }
        }
        if all_null {
            return Column::Null(values.len());
        }
        let mut nulls = NullMask::none(values.len());
        if ints {
            let mut data = vec![0i64; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Int(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::I64 { data, nulls }
        } else if floats {
            let mut data = vec![0.0f64; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Float(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::F64 { data, nulls }
        } else if bools {
            let mut data = vec![false; values.len()];
            for (i, v) in values.iter().enumerate() {
                match v {
                    Value::Bool(x) => data[i] = *x,
                    _ => nulls.set_null(i),
                }
            }
            Column::Bool { data, nulls }
        } else {
            Column::Boxed(values)
        }
    }

    fn view(&self) -> View<'_> {
        match self {
            Column::F64 { data, nulls } => View::F64(data, nulls),
            Column::I64 { data, nulls } => View::I64(data, nulls),
            Column::Bool { data, nulls } => View::Bool(data, nulls),
            Column::Null(len) => View::Null(*len),
            Column::Boxed(values) => View::Boxed(values),
        }
    }
}

/// Borrowed lanes of one column: what every kernel reads. An operand is a
/// view whether its node just computed it, it is an earlier item's alias,
/// or it is a sample slice the caller bound — so none of the three is
/// copied in order to be read.
#[derive(Debug, Clone, Copy)]
enum View<'v> {
    F64(&'v [f64], &'v NullMask),
    I64(&'v [i64], &'v NullMask),
    Bool(&'v [bool], &'v NullMask),
    Null(usize),
    Boxed(&'v [Value]),
}

impl View<'_> {
    fn len(self) -> usize {
        match self {
            View::F64(data, _) => data.len(),
            View::I64(data, _) => data.len(),
            View::Bool(data, _) => data.len(),
            View::Null(len) => len,
            View::Boxed(values) => values.len(),
        }
    }

    fn value_at(self, i: usize) -> Value {
        match self {
            View::F64(_, nulls) | View::I64(_, nulls) | View::Bool(_, nulls)
                if nulls.is_null(i) =>
            {
                Value::Null
            }
            View::F64(data, _) => Value::Float(data[i]),
            View::I64(data, _) => Value::Int(data[i]),
            View::Bool(data, _) => Value::Bool(data[i]),
            View::Null(_) => Value::Null,
            View::Boxed(values) => values[i].clone(),
        }
    }

    fn to_values(self) -> Vec<Value> {
        match self {
            View::Boxed(values) => values.to_vec(),
            _ => (0..self.len()).map(|i| self.value_at(i)).collect(),
        }
    }

    /// An owned copy (a select item that is nothing but an alias).
    fn to_column(self) -> Column {
        match self {
            View::F64(data, nulls) => Column::F64 {
                data: data.to_vec(),
                nulls: nulls.clone(),
            },
            View::I64(data, nulls) => Column::I64 {
                data: data.to_vec(),
                nulls: nulls.clone(),
            },
            View::Bool(data, nulls) => Column::Bool {
                data: data.to_vec(),
                nulls: nulls.clone(),
            },
            View::Null(len) => Column::Null(len),
            View::Boxed(values) => Column::Boxed(values.to_vec()),
        }
    }

    /// Select lanes `idx` into a new column (`out[k] = self[idx[k]]`).
    fn gather(self, idx: &[usize]) -> Column {
        match self {
            View::F64(data, nulls) => Column::F64 {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            View::I64(data, nulls) => Column::I64 {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            View::Bool(data, nulls) => Column::Bool {
                data: idx.iter().map(|&i| data[i]).collect(),
                nulls: nulls.gather(idx),
            },
            View::Null(_) => Column::Null(idx.len()),
            View::Boxed(values) => Column::Boxed(idx.iter().map(|&i| values[i].clone()).collect()),
        }
    }

    /// The single value every lane holds, if the column is constant over
    /// the block (floats compared by bit pattern, so a constant NaN still
    /// counts). VG argument columns are usually constant — one parameter
    /// valuation per block — letting the call site share one parameter
    /// row instead of materializing a row per world.
    fn const_value(self) -> Option<Value> {
        if self.len() == 0 {
            return None;
        }
        match self {
            View::F64(data, nulls) => {
                let first = data[0].to_bits();
                (!nulls.any() && data.iter().all(|x| x.to_bits() == first))
                    .then(|| Value::Float(data[0]))
            }
            View::I64(data, nulls) => {
                (!nulls.any() && data.iter().all(|&x| x == data[0])).then(|| Value::Int(data[0]))
            }
            View::Bool(data, nulls) => {
                (!nulls.any() && data.iter().all(|&x| x == data[0])).then(|| Value::Bool(data[0]))
            }
            View::Null(_) => Some(Value::Null),
            View::Boxed(values) => {
                let bit_eq = |a: &Value, b: &Value| match (a, b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => a == b,
                };
                values
                    .iter()
                    .all(|v| bit_eq(v, &values[0]))
                    .then(|| values[0].clone())
            }
        }
    }
}

/// What evaluating a node yields: a column the node computed, or a view of
/// one that already exists (an alias read under the whole-block selection).
#[derive(Debug)]
enum Lanes<'a> {
    Owned(Column),
    Borrowed(View<'a>),
}

impl Lanes<'_> {
    fn view(&self) -> View<'_> {
        match self {
            Lanes::Owned(column) => column.view(),
            Lanes::Borrowed(view) => *view,
        }
    }

    fn into_column(self) -> Column {
        match self {
            Lanes::Owned(column) => column,
            Lanes::Borrowed(view) => view.to_column(),
        }
    }
}

/// Which world slots of the block a node is evaluated for; lane `k` of the
/// node's column belongs to slot [`Sel::slot`]`(k)`.
#[derive(Debug, Clone, Copy)]
enum Sel<'s> {
    /// Every slot, in order: where every walk starts, and where a node
    /// stays until a `CASE` arm or an `AND`/`OR` right-hand side narrows
    /// it. Lane `k` *is* slot `k`, so nothing is gathered or scattered.
    All(usize),
    /// The listed slots, ascending — a selection vector.
    Lanes(&'s [usize]),
}

impl<'s> Sel<'s> {
    fn len(self) -> usize {
        match self {
            Sel::All(len) => len,
            Sel::Lanes(idx) => idx.len(),
        }
    }

    fn slot(self, k: usize) -> usize {
        match self {
            Sel::All(_) => k,
            Sel::Lanes(idx) => idx[k],
        }
    }

    fn slots(self) -> impl Iterator<Item = usize> + 's {
        (0..self.len()).map(move |k| self.slot(k))
    }
}

/// Kernel-vs-fallback accounting for one columnar walk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Expression nodes computed by a typed kernel.
    pub kernels: u64,
    /// Expression nodes routed through per-value (boxed) evaluation.
    pub fallbacks: u64,
    /// Alias references read through a selection vector (lanes copied out
    /// by index) instead of borrowed whole. Zero for a walk that never
    /// leaves the whole-block selection — every walk of the bundled
    /// scenarios; anything else means a node under a non-leaf `CASE` arm
    /// or an `AND`/`OR` right-hand side read an alias.
    pub gathers: u64,
    /// VG call sites evaluated (each whole- or partial-block invocation of
    /// a catalog function counts one, memo-served or not).
    pub call_sites: u64,
    /// The subset of `call_sites` answered from a [`CallSiteMemo`] without
    /// drawing.
    pub call_sites_memoised: u64,
    /// The subset of `call_sites` whose lanes were replayed from a
    /// [`LedgerStore`] — the model keeps a draw ledger, and only streams
    /// the store had not seen (far enough) were drawn.
    pub call_sites_replayed: u64,
}

/// One argument of a memoisable VG call. Floats are held by bit pattern so
/// the key is `Eq + Hash` and a NaN argument equals itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArgBits {
    /// SQL NULL.
    Null,
    /// An integer argument.
    Int(i64),
    /// A float argument, as `f64::to_bits`.
    Float(u64),
    /// A boolean argument.
    Bool(bool),
}

/// Identity of one VG call over a *fixed* `(SeedManager, world block)`:
/// every lane's substream derives from `(world, function, call index)` and
/// the model is deterministic in `(arguments, substream)`, so these three
/// fields determine the call's whole output column.
///
/// The call index is part of the key because it is part of the substream
/// derivation: the same function called twice with equal arguments in one
/// SELECT draws from two different streams per world.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CallSiteKey {
    /// Function name as written at the call site (what seeds derive from).
    pub function: String,
    /// The per-world VG call counter at this site, uniform over the block.
    pub call_index: u64,
    /// The block-constant argument row.
    pub args: Vec<ArgBits>,
}

impl CallSiteKey {
    /// The key for `function` at `call_index` with the constant argument
    /// row `args`; `None` when an argument is not `Null`/`Int`/`Float`/
    /// `Bool` (such calls are never memoised).
    fn new(function: &str, call_index: u64, args: &[Value]) -> Option<Self> {
        let args = args
            .iter()
            .map(|v| match v {
                Value::Null => Some(ArgBits::Null),
                Value::Int(x) => Some(ArgBits::Int(*x)),
                Value::Float(x) => Some(ArgBits::Float(x.to_bits())),
                Value::Bool(x) => Some(ArgBits::Bool(*x)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        Some(CallSiteKey {
            function: function.to_owned(),
            call_index,
            args,
        })
    }
}

/// A cache of VG call outputs, consulted by
/// [`evaluate_select_columns_with`] at call sites whose arguments are
/// constant over the block.
///
/// One memo is valid for exactly one `(SeedManager, world block)` pair —
/// the key does not name them, so the owner must never share a memo
/// between two. Implementations may drop entries at will (a lost entry is
/// only a recomputation) and must return lanes exactly as inserted.
pub trait CallSiteMemo: Sync {
    /// The cached `f64` lanes of this call over the block, if present.
    fn get(&self, key: &CallSiteKey) -> Option<Arc<[f64]>>;
    /// Cache the lanes of a call that just drew them.
    fn insert(&self, key: CallSiteKey, lanes: Arc<[f64]>);
}

/// Evaluate the scenario SELECT for a block of worlds through the typed
/// columnar tier, returning one `(alias, column)` pair per select item in
/// declaration order plus the walk's kernel/fallback accounting.
///
/// `worlds[i]` is the world id of slot `i`, every column has
/// `worlds.len()` lanes, and lane `i` is bit-identical to a scalar walk of
/// world `worlds[i]` under
/// [`WorldRng::per_call`](crate::executor::WorldRng::per_call): the VG
/// call with per-world call index `k` in slot `i` draws from the substream
/// derived from `(worlds[i], function, k)`.
pub fn evaluate_select_columns(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    seeds: SeedManager,
    worlds: &[u64],
) -> SqlResult<(Vec<(String, Column)>, ColumnarStats)> {
    evaluate_select_columns_with(select, registry, params, seeds, worlds, None, None)
}

/// [`evaluate_select_columns`] with whichever of the walk's two draw
/// caches the caller holds: a [`CallSiteMemo`] and a [`LedgerStore`].
///
/// With `memo`, a VG call site is served from (or, after drawing, recorded
/// into) it when it covers the whole block, every argument column is a
/// block-constant `Null`/`Int`/`Float`/`Bool` and the per-slot call
/// counter is uniform over the block. Every other call site — under a
/// data-dependent `CASE`/`AND`/`OR` arm, or with an argument that
/// references an earlier stochastic alias — draws as usual. Outputs are
/// bit-identical with and without the memo, and per-slot counters and
/// [`ColumnarStats::kernels`] advance on a hit exactly as on a miss; only
/// the catalog's invocation statistics see fewer draws. The caller must
/// hold `seeds` and `worlds` fixed for the memo's lifetime.
///
/// With `ledgers`, a call site the memo did not serve whose model keeps a
/// draw ledger replays each selected slot from the stored ledger of its
/// `(function, call index, world)` stream, drawing only the streams the
/// store has not seen far enough — whole block or partial selection,
/// constant argument row or one row per slot. The store's key is the
/// stream derivation's, so unlike the memo it is valid for *any* `worlds`
/// under one `seeds`; the caller must hold `seeds` fixed for its lifetime.
/// Outputs, per-slot counters, [`ColumnarStats::kernels`] and the
/// catalog's invocation statistics are identical with and without it.
pub fn evaluate_select_columns_with(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    seeds: SeedManager,
    worlds: &[u64],
    memo: Option<&dyn CallSiteMemo>,
    ledgers: Option<&dyn LedgerStore>,
) -> SqlResult<(Vec<(String, Column)>, ColumnarStats)> {
    let draws = DrawState {
        seeds,
        worlds,
        counters: vec![0; worlds.len()],
        memo,
        ledgers,
    };
    walk_select(select, registry, params, draws, Sel::All(worlds.len()))
}

/// The select walk under a given top-level selection, which must cover
/// every slot of `draws.worlds`: [`Sel::All`] from every entry point, the
/// equivalent selection vector from the differential tests.
fn walk_select(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    draws: DrawState<'_>,
    sel: Sel<'_>,
) -> SqlResult<(Vec<(String, Column)>, ColumnarStats)> {
    let mut walk = Walk {
        draws: Some(draws),
        stats: ColumnarStats::default(),
    };
    let valid = NullMask::none(0);
    let mut out: Vec<(String, Column)> = Vec::with_capacity(select.items.len());
    for item in &select.items {
        let scope = Scope {
            registry,
            params,
            columns: &out,
            bound: &[],
            valid: &valid,
        };
        let column = eval_col(&item.expr, &scope, &mut walk, sel)?.into_column();
        out.push((item.alias.clone(), column));
    }
    Ok((out, walk.stats))
}

/// Evaluate the *derived* select items — those with no entry in `samples`
/// — once over a block of `lanes` lanes, with the items that do have an
/// entry bound as aliases to their `f64` samples (borrowed, never copied),
/// and return each derived item's samples in declaration order. This is
/// the block form of re-computing derived columns (Figure 2's `CASE WHEN
/// capacity < demand …`) after a fingerprint re-map: one walk for all
/// worlds instead of one scalar walk per world, bit-identical per lane.
///
/// Items are visited in declaration order, so a derived item sees exactly
/// the aliases declared before it (stochastic or derived), as in every
/// other tier. A bound sample is bound as a *valid* `f64` lane whatever its
/// value: the sample encoding has already collapsed NULL into NaN, and the
/// per-world reference binds `Value::Float(x)` the same way, so NaN stays a
/// value here (`NaN < 1` is false, not NULL). NULLs the derived items
/// themselves produce live in their columns' masks while later items read
/// them, and fold to NaN — the [`to_f64_samples`] rule, applied to the
/// column by move — only in what is returned.
///
/// Derived items are deterministic: reaching a catalog (VG) function, or
/// a bound column whose length is not `lanes`, is an evaluation error.
#[allow(clippy::type_complexity)] // the select walk's return shape, with samples for columns
pub fn evaluate_derived_columns(
    select: &SelectInto,
    registry: &VgRegistry,
    params: &HashMap<String, Value>,
    samples: &HashMap<String, Vec<f64>>,
    lanes: usize,
) -> SqlResult<(Vec<(String, Vec<f64>)>, ColumnarStats)> {
    let mut walk = Walk {
        draws: None,
        stats: ColumnarStats::default(),
    };
    let valid = NullMask::none(lanes);
    let mut bound: Vec<(&str, &[f64])> = Vec::new();
    let mut derived: Vec<(String, Column)> = Vec::new();
    for item in &select.items {
        match samples.get(&item.alias) {
            Some(data) if data.len() != lanes => {
                return Err(SqlError::Eval(format!(
                    "bound column `{}` has {} lanes, the block has {lanes}",
                    item.alias,
                    data.len()
                )));
            }
            Some(data) => bound.push((&item.alias, data)),
            None => {
                let scope = Scope {
                    registry,
                    params,
                    columns: &derived,
                    bound: &bound,
                    valid: &valid,
                };
                let column =
                    eval_col(&item.expr, &scope, &mut walk, Sel::All(lanes))?.into_column();
                derived.push((item.alias.clone(), column));
            }
        }
    }
    let out = derived
        .into_iter()
        .map(|(alias, column)| Ok((alias, into_f64_samples(column)?)))
        .collect::<SqlResult<_>>()?;
    Ok((out, walk.stats))
}

/// Convert one typed column to the `f64` sample representation of the
/// estimation layers (fingerprint probes, Monte Carlo sample sets).
///
/// **This is the typed tier's single NULL↔NaN conversion point.** Inside
/// the tier, SQL NULL lives exclusively in the null mask: a NaN in the
/// data lanes of a *valid* slot is a genuine VG-produced sample and must
/// not be conflated with NULL — the two behave differently under
/// comparisons (`NULL = NULL` is NULL, `NaN = NaN` is false) and under
/// `CASE` masking. Only here, where the sample encoding represents both
/// as NaN (matching [`sample_f64`], the scalar tier's per-value rule,
/// which boxed lanes go through), do they collapse.
pub fn to_f64_samples(column: &Column) -> SqlResult<Vec<f64>> {
    let (mut out, nulls) = match column {
        Column::F64 { data, nulls } => (data.clone(), nulls),
        Column::I64 { data, nulls } => (widen_i64(data), nulls),
        Column::Bool { data, nulls } => (widen_bool(data), nulls),
        Column::Null(len) => return Ok(vec![f64::NAN; *len]),
        Column::Boxed(values) => return values.iter().map(sample_f64).collect(),
    };
    mask_to_nan(&mut out, nulls);
    Ok(out)
}

/// [`to_f64_samples`] of a column the caller is done with: float lanes are
/// moved out, and integer lanes widened where they lie (`collect` reuses
/// the buffer of a same-sized element), so the samples of a numeric column
/// are the column's own allocation.
fn into_f64_samples(column: Column) -> SqlResult<Vec<f64>> {
    let (mut out, nulls): (Vec<f64>, _) = match column {
        Column::F64 { data, nulls } => (data, nulls),
        Column::I64 { data, nulls } => (data.into_iter().map(|x| x as f64).collect(), nulls),
        other => return to_f64_samples(&other),
    };
    mask_to_nan(&mut out, &nulls);
    Ok(out)
}

/// What one select item's evaluation reads and never writes (the block
/// form of the scalar tier's `EvalContext` bindings, with whole columns as
/// aliases).
struct Scope<'a> {
    registry: &'a VgRegistry,
    params: &'a HashMap<String, Value>,
    /// The items evaluated so far, in declaration order: each is in scope
    /// under its alias for the items after it.
    columns: &'a [(String, Column)],
    /// Sample lanes a derived walk has bound so far (none in a select
    /// walk), every lane valid under `valid`.
    bound: &'a [(&'a str, &'a [f64])],
    valid: &'a NullMask,
}

impl<'a> Scope<'a> {
    /// The column in scope under `name`; the latest declaration wins.
    fn alias(&self, name: &str) -> SqlResult<View<'a>> {
        if let Some((_, column)) = self.columns.iter().rev().find(|(a, _)| a == name) {
            return Ok(column.view());
        }
        if let Some((_, data)) = self.bound.iter().rev().find(|(a, _)| *a == name) {
            return Ok(View::F64(data, self.valid));
        }
        Err(SqlError::Eval(format!("unknown column or alias `{name}`")))
    }

    fn param(&self, name: &str) -> SqlResult<&'a Value> {
        self.params
            .get(name)
            .ok_or_else(|| SqlError::Eval(format!("unbound parameter @{name}")))
    }
}

/// What a walk accumulates as it goes.
struct Walk<'a> {
    /// VG draw state; `None` in a derived-column walk, which must not draw.
    draws: Option<DrawState<'a>>,
    stats: ColumnarStats,
}

/// What a VG call site needs to draw: the substream derivation inputs and
/// the per-slot call counters.
struct DrawState<'a> {
    seeds: SeedManager,
    worlds: &'a [u64],
    counters: Vec<u64>,
    memo: Option<&'a dyn CallSiteMemo>,
    ledgers: Option<&'a dyn LedgerStore>,
}

/// Broadcast one scalar to a block-length column.
fn broadcast(v: &Value, len: usize) -> Column {
    match v {
        Value::Null => Column::Null(len),
        Value::Int(x) => Column::I64 {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        Value::Float(x) => Column::F64 {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        Value::Bool(x) => Column::Bool {
            data: vec![*x; len],
            nulls: NullMask::none(len),
        },
        other => Column::Boxed(vec![other.clone(); len]),
    }
}

/// Evaluate `expr` for the world slots in `sel`, returning one lane per
/// selected slot (`lane k` belongs to slot `sel.slot(k)`).
fn eval_col<'a>(
    expr: &Expr,
    scope: &Scope<'a>,
    walk: &mut Walk<'_>,
    sel: Sel<'_>,
) -> SqlResult<Lanes<'a>> {
    let column = match expr {
        Expr::Literal(v) => broadcast(v, sel.len()),
        Expr::Param(name) => broadcast(scope.param(name)?, sel.len()),
        Expr::Column(name) => {
            let view = scope.alias(name)?;
            match sel {
                Sel::All(_) => return Ok(Lanes::Borrowed(view)),
                Sel::Lanes(idx) => {
                    walk.stats.gathers += 1;
                    view.gather(idx)
                }
            }
        }
        Expr::Neg(e) => {
            let c = eval_col(e, scope, walk, sel)?;
            neg_col(c.view(), walk)?
        }
        Expr::Not(e) => {
            let c = eval_col(e, scope, walk, sel)?;
            not_col(c.view(), walk)?
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => eval_logical_col(*op, lhs, rhs, scope, walk, sel)?,
            _ => {
                let l = eval_col(lhs, scope, walk, sel)?;
                let r = eval_col(rhs, scope, walk, sel)?;
                apply_binop_col(*op, l.view(), r.view(), walk)?
            }
        },
        Expr::Case { whens, otherwise } => {
            eval_case_col(whens, otherwise.as_deref(), scope, walk, sel)?
        }
        Expr::Call { name, args } => {
            let mut arg_columns = Vec::with_capacity(args.len());
            for a in args {
                arg_columns.push(eval_col(a, scope, walk, sel)?);
            }
            call_function_col(name, &arg_columns, scope, walk, sel)?
        }
    };
    Ok(Lanes::Owned(column))
}

/// Per-value evaluation of one unary node, re-sniffed to a typed column.
fn fallback_unary(
    c: View<'_>,
    walk: &mut Walk<'_>,
    f: impl Fn(&Value) -> SqlResult<Value>,
) -> SqlResult<Column> {
    walk.stats.fallbacks += 1;
    let values: SqlResult<Vec<Value>> = c.to_values().iter().map(f).collect();
    Ok(Column::from_values(values?))
}

fn neg_col(c: View<'_>, walk: &mut Walk<'_>) -> SqlResult<Column> {
    match c {
        View::F64(data, nulls) => {
            walk.stats.kernels += 1;
            Ok(Column::F64 {
                data: neg_f64(data),
                nulls: nulls.clone(),
            })
        }
        View::I64(data, nulls) => {
            walk.stats.kernels += 1;
            Ok(Column::I64 {
                data: neg_i64(data, nulls),
                nulls: nulls.clone(),
            })
        }
        View::Null(len) => {
            walk.stats.kernels += 1;
            Ok(Column::Null(len))
        }
        other => fallback_unary(other, walk, |v| v.neg().map_err(SqlError::from)),
    }
}

fn not_col(c: View<'_>, walk: &mut Walk<'_>) -> SqlResult<Column> {
    let (data, nulls) = match c {
        View::F64(data, nulls) => (not_bool(&truth_f64(data)), nulls),
        View::I64(data, nulls) => (not_bool(&truth_i64(data)), nulls),
        View::Bool(data, nulls) => (not_bool(data), nulls),
        View::Null(len) => {
            walk.stats.kernels += 1;
            return Ok(Column::Null(len));
        }
        other => {
            return fallback_unary(other, walk, |v| {
                if v.is_null() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(!v.as_bool().map_err(SqlError::from)?))
                }
            })
        }
    };
    walk.stats.kernels += 1;
    Ok(Column::Bool {
        data,
        nulls: nulls.clone(),
    })
}

/// Float lanes of a numeric column, widening integers through `as f64`
/// exactly as the scalar tier's promotion does. `None` for anything
/// non-numeric (booleans, NULL wildcard, boxed).
fn as_f64_lanes(col: View<'_>) -> Option<(Cow<'_, [f64]>, &NullMask)> {
    match col {
        View::F64(data, nulls) => Some((Cow::Borrowed(data), nulls)),
        View::I64(data, nulls) => Some((Cow::Owned(widen_i64(data)), nulls)),
        _ => None,
    }
}

/// Per-value evaluation of one binary node, re-sniffed to a typed column.
fn fallback_binop(op: BinOp, l: View<'_>, r: View<'_>, walk: &mut Walk<'_>) -> SqlResult<Column> {
    walk.stats.fallbacks += 1;
    let values: SqlResult<Vec<Value>> = (0..l.len())
        .map(|i| apply_binop(op, &l.value_at(i), &r.value_at(i)))
        .collect();
    Ok(Column::from_values(values?))
}

fn apply_binop_col(op: BinOp, l: View<'_>, r: View<'_>, walk: &mut Walk<'_>) -> SqlResult<Column> {
    // A NULL operand absorbs before any type checking (`Value` semantics):
    // the node is all-NULL for arithmetic and division, and NULL-propagating
    // for comparisons — in every case, all-NULL output.
    if let (View::Null(n), _) | (_, View::Null(n)) = (l, r) {
        walk.stats.kernels += 1;
        return Ok(Column::Null(n));
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => {
            if let (View::I64(a, na), View::I64(b, nb)) = (l, r) {
                let nulls = na.union(nb);
                let kernel = match op {
                    BinOp::Add => add_i64,
                    BinOp::Sub => sub_i64,
                    _ => mul_i64,
                };
                return match kernel(a, b, &nulls) {
                    Some(data) => {
                        walk.stats.kernels += 1;
                        Ok(Column::I64 { data, nulls })
                    }
                    // Overflow on a valid lane: the scalar tier promotes
                    // exactly that lane to float, so the node's column is
                    // mixed — re-run per value.
                    None => fallback_binop(op, l, r, walk),
                };
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    walk.stats.kernels += 1;
                    let kernel = match op {
                        BinOp::Add => add_f64,
                        BinOp::Sub => sub_f64,
                        _ => mul_f64,
                    };
                    Ok(Column::F64 {
                        data: kernel(&a, &b),
                        nulls: na.union(nb),
                    })
                }
                _ => fallback_binop(op, l, r, walk),
            }
        }
        BinOp::Div | BinOp::Rem => {
            if let (View::I64(a, na), View::I64(b, nb)) = (l, r) {
                walk.stats.kernels += 1;
                let mut nulls = na.union(nb);
                let data = match op {
                    BinOp::Div => div_i64(a, b, &mut nulls),
                    _ => rem_i64(a, b, &mut nulls),
                };
                return Ok(Column::I64 { data, nulls });
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    walk.stats.kernels += 1;
                    let mut nulls = na.union(nb);
                    let data = match op {
                        BinOp::Div => div_f64(&a, &b, &mut nulls),
                        _ => rem_f64(&a, &b, &mut nulls),
                    };
                    Ok(Column::F64 { data, nulls })
                }
                // Booleans coerce through `as_f64` in division but error in
                // the other arithmetic ops; the per-value path reproduces
                // both, so anything non-numeric falls back.
                _ => fallback_binop(op, l, r, walk),
            }
        }
        BinOp::Cmp(c) => {
            if let (View::Bool(a, na), View::Bool(b, nb)) = (l, r) {
                walk.stats.kernels += 1;
                return Ok(Column::Bool {
                    data: cmp_bool(c, a, b),
                    nulls: na.union(nb),
                });
            }
            match (as_f64_lanes(l), as_f64_lanes(r)) {
                (Some((a, na)), Some((b, nb))) => {
                    walk.stats.kernels += 1;
                    Ok(Column::Bool {
                        data: cmp_f64(c, &a, &b),
                        nulls: na.union(nb),
                    })
                }
                _ => fallback_binop(op, l, r, walk),
            }
        }
        BinOp::And | BinOp::Or => unreachable!("logical operators use the three-valued path"),
    }
}

/// SQL truth value per lane: `None` is NULL (mask state), `Some(b)` the
/// scalar tier's boolean coercion. Errors on strings exactly where
/// `Value::as_bool` would.
fn truth_lanes(col: View<'_>) -> SqlResult<Vec<Option<bool>>> {
    let masked = |truth: &[bool], nulls: &NullMask| {
        truth
            .iter()
            .enumerate()
            .map(|(i, &b)| (!nulls.is_null(i)).then_some(b))
            .collect()
    };
    Ok(match col {
        View::F64(data, nulls) => masked(&truth_f64(data), nulls),
        View::I64(data, nulls) => masked(&truth_i64(data), nulls),
        View::Bool(data, nulls) => masked(data, nulls),
        View::Null(len) => vec![None; len],
        View::Boxed(values) => values
            .iter()
            .map(|v| {
                if v.is_null() {
                    Ok(None)
                } else {
                    v.as_bool().map(Some).map_err(SqlError::from)
                }
            })
            .collect::<SqlResult<_>>()?,
    })
}

/// Which lanes satisfy a `CASE` condition: [`truth_lanes`] with NULL
/// folded to "not satisfied", as SQL has it.
fn satisfied(cond: View<'_>) -> SqlResult<Cow<'_, [bool]>> {
    let valid = |mut truth: Vec<bool>, nulls: &NullMask| {
        if nulls.any() {
            for (i, t) in truth.iter_mut().enumerate() {
                *t &= !nulls.is_null(i);
            }
        }
        Cow::Owned(truth)
    };
    Ok(match cond {
        View::Bool(data, nulls) if !nulls.any() => Cow::Borrowed(data),
        View::Bool(data, nulls) => valid(data.to_vec(), nulls),
        View::F64(data, nulls) => valid(truth_f64(data), nulls),
        View::I64(data, nulls) => valid(truth_i64(data), nulls),
        View::Null(len) => Cow::Owned(vec![false; len]),
        View::Boxed(_) => Cow::Owned(
            truth_lanes(cond)?
                .into_iter()
                .map(|t| t == Some(true))
                .collect(),
        ),
    })
}

/// Three-valued `AND`/`OR` with the scalar tier's exact short-circuit
/// discipline: the right-hand side is evaluated only for the slots the
/// scalar tier would not have short-circuited, preserving per-slot VG
/// call counters.
fn eval_logical_col(
    op: BinOp,
    lhs: &Expr,
    rhs: &Expr,
    scope: &Scope<'_>,
    walk: &mut Walk<'_>,
    sel: Sel<'_>,
) -> SqlResult<Column> {
    let lcol = eval_col(lhs, scope, walk, sel)?;
    let mut boxed = matches!(lcol.view(), View::Boxed(_));
    let ltruth = truth_lanes(lcol.view())?;
    // The truth value an operand short-circuits to, if it does.
    let shorted = |t: Option<bool>| -> Option<bool> {
        match (op, t) {
            (BinOp::And, Some(false)) => Some(false),
            (BinOp::Or, Some(true)) => Some(true),
            _ => None,
        }
    };
    // Outer None = unresolved (needs rhs); Some(None) = NULL result.
    let mut out: Vec<Option<Option<bool>>> = vec![None; sel.len()];
    let mut rhs_pos: Vec<usize> = Vec::new();
    for (pos, &t) in ltruth.iter().enumerate() {
        match shorted(t) {
            Some(b) => out[pos] = Some(Some(b)),
            None => rhs_pos.push(pos),
        }
    }
    if !rhs_pos.is_empty() {
        let rhs_sel: Vec<usize> = rhs_pos.iter().map(|&pos| sel.slot(pos)).collect();
        let rcol = eval_col(rhs, scope, walk, Sel::Lanes(&rhs_sel))?;
        boxed |= matches!(rcol.view(), View::Boxed(_));
        let rtruth = truth_lanes(rcol.view())?;
        for (k, &pos) in rhs_pos.iter().enumerate() {
            let (lt, rt) = (ltruth[pos], rtruth[k]);
            out[pos] = Some(match shorted(rt) {
                Some(b) => Some(b),
                None if lt.is_none() || rt.is_none() => None,
                // Neither operand short-circuited nor is NULL: AND is
                // true, OR is false.
                None => Some(matches!(op, BinOp::And)),
            });
        }
    }
    if boxed {
        walk.stats.fallbacks += 1;
    } else {
        walk.stats.kernels += 1;
    }
    let mut data = vec![false; sel.len()];
    let mut nulls = NullMask::none(sel.len());
    for (i, v) in out.iter().enumerate() {
        match v.expect("every slot resolved by short-circuit or rhs") {
            Some(b) => data[i] = b,
            None => nulls.set_null(i),
        }
    }
    Ok(Column::Bool { data, nulls })
}

/// An arm that evaluating cannot draw from, overflow-promote in or fail
/// on a lane of its own: a literal, a parameter or an alias.
fn is_leaf(expr: &Expr) -> bool {
    matches!(expr, Expr::Literal(_) | Expr::Param(_) | Expr::Column(_))
}

/// `CASE`, dense or selected.
///
/// Under the whole-block selection, a single-`WHEN` `CASE` whose arms are
/// all leaves ([`is_leaf`]) is a *blend* ([`blend_case`]): the one
/// condition covers the block exactly as the scalar tier's first-match
/// walk evaluates it in every world, and looking a leaf up for a lane no
/// world's control flow reaches changes nothing that world could observe.
///
/// Everything else — a partial selection, several `WHEN`s, an arm with an
/// operator, a call or a nested `CASE` in it — keeps the active / matched
/// / remaining selection discipline: each condition is evaluated only for
/// the slots no earlier arm matched, arm results only for the slots their
/// condition matched, then scatter-merged into the output column.
fn eval_case_col(
    whens: &[(Expr, Expr)],
    otherwise: Option<&Expr>,
    scope: &Scope<'_>,
    walk: &mut Walk<'_>,
    sel: Sel<'_>,
) -> SqlResult<Column> {
    if let (Sel::All(len @ 1..), [(cond, then)]) = (sel, whens) {
        if is_leaf(then) && otherwise.map_or(true, is_leaf) {
            return blend_case(cond, then, otherwise, scope, walk, len);
        }
    }
    // (positions into `sel`, lanes for those positions) per resolved arm.
    let mut pieces: Vec<(Vec<usize>, Column)> = Vec::new();
    // Positions no earlier arm matched, ascending.
    let mut active: Vec<usize> = (0..sel.len()).collect();
    let mut boxed_condition = false;
    for (cond, result) in whens {
        if active.is_empty() {
            break;
        }
        // While nothing has matched — the first condition always — the
        // condition's selection is the `CASE`'s own.
        let cond_slots: Vec<usize>;
        let cond_sel = if active.len() == sel.len() {
            sel
        } else {
            cond_slots = active.iter().map(|&pos| sel.slot(pos)).collect();
            Sel::Lanes(&cond_slots)
        };
        let cc = eval_col(cond, scope, walk, cond_sel)?;
        boxed_condition |= matches!(cc.view(), View::Boxed(_));
        let ct = satisfied(cc.view())?;
        // SQL: a NULL condition is not satisfied.
        let mut matched: Vec<usize> = Vec::new();
        let mut remaining: Vec<usize> = Vec::new();
        for (&pos, &hit) in active.iter().zip(ct.iter()) {
            if hit {
                matched.push(pos);
            } else {
                remaining.push(pos);
            }
        }
        if !matched.is_empty() {
            let result_sel: Vec<usize> = matched.iter().map(|&pos| sel.slot(pos)).collect();
            let rc = eval_col(result, scope, walk, Sel::Lanes(&result_sel))?;
            pieces.push((matched, rc.into_column()));
        }
        active = remaining;
    }
    if !active.is_empty() {
        match otherwise {
            Some(e) => {
                let else_sel: Vec<usize> = active.iter().map(|&pos| sel.slot(pos)).collect();
                let ec = eval_col(e, scope, walk, Sel::Lanes(&else_sel))?;
                pieces.push((active, ec.into_column()));
            }
            None => {
                let len = active.len();
                pieces.push((active, Column::Null(len)));
            }
        }
    }
    merge_pieces(pieces, sel.len(), boxed_condition, walk)
}

/// The typed kind of a column or scalar; `None` is the NULL wildcard,
/// which unifies with any kind.
#[derive(PartialEq, Clone, Copy)]
enum Kind {
    F,
    I,
    B,
}

/// Unify the kinds of a `CASE`'s reached arms: `Ok(kind)` when every arm
/// is typed and no two typed arms differ, `Err(())` when an arm is boxed
/// or two kinds clash — the scalar tier would have produced a mixed
/// column, so the node drops to boxed values.
fn unify_kinds(
    arms: impl IntoIterator<Item = Result<Option<Kind>, ()>>,
) -> Result<Option<Kind>, ()> {
    let mut kind = None;
    for arm in arms {
        match (kind, arm?) {
            (None, k) => kind = k,
            (Some(a), Some(b)) if a != b => return Err(()),
            _ => {}
        }
    }
    Ok(kind)
}

fn view_kind(view: View<'_>) -> Result<Option<Kind>, ()> {
    match view {
        View::F64(..) => Ok(Some(Kind::F)),
        View::I64(..) => Ok(Some(Kind::I)),
        View::Bool(..) => Ok(Some(Kind::B)),
        View::Null(_) => Ok(None),
        View::Boxed(_) => Err(()),
    }
}

/// A leaf `CASE` arm, looked up but not materialised.
#[derive(Clone, Copy)]
enum Leaf<'l> {
    /// A literal, a parameter, an arm no lane reaches, or an absent ELSE
    /// (the last two as NULL).
    Scalar(&'l Value),
    Alias(View<'l>),
}

impl<'l> Leaf<'l> {
    /// The arm's value if some lane reaches it, NULL otherwise (and for an
    /// absent ELSE).
    fn look_up(arm: Option<&'l Expr>, reached: bool, scope: &Scope<'l>) -> SqlResult<Self> {
        Ok(match arm {
            Some(Expr::Literal(v)) if reached => Leaf::Scalar(v),
            Some(Expr::Param(name)) if reached => Leaf::Scalar(scope.param(name)?),
            Some(Expr::Column(name)) if reached => Leaf::Alias(scope.alias(name)?),
            _ => Leaf::Scalar(&Value::Null),
        })
    }

    fn kind(self) -> Result<Option<Kind>, ()> {
        match self {
            Leaf::Scalar(Value::Float(_)) => Ok(Some(Kind::F)),
            Leaf::Scalar(Value::Int(_)) => Ok(Some(Kind::I)),
            Leaf::Scalar(Value::Bool(_)) => Ok(Some(Kind::B)),
            Leaf::Scalar(Value::Null) => Ok(None),
            Leaf::Scalar(_) => Err(()),
            Leaf::Alias(view) => view_kind(view),
        }
    }

    fn value_at(self, i: usize) -> Value {
        match self {
            Leaf::Scalar(v) => v.clone(),
            Leaf::Alias(view) => view.value_at(i),
        }
    }
}

/// The dense `CASE`: evaluate the condition once over the block, look up
/// each leaf arm some lane reaches (an unreached arm is not even looked
/// up, so an unbound parameter in it stays as silent as in the scalar
/// tier), and blend by the truth mask into one typed column. Kind
/// unification, the boxed fallback and the `kernels` / `fallbacks`
/// accounting are [`merge_pieces`]'s.
fn blend_case(
    cond: &Expr,
    then: &Expr,
    otherwise: Option<&Expr>,
    scope: &Scope<'_>,
    walk: &mut Walk<'_>,
    len: usize,
) -> SqlResult<Column> {
    let cc = eval_col(cond, scope, walk, Sel::All(len))?;
    let boxed_condition = matches!(cc.view(), View::Boxed(_));
    let pick = satisfied(cc.view())?;
    let then = Leaf::look_up(Some(then), pick.contains(&true), scope)?;
    let otherwise = Leaf::look_up(otherwise, pick.contains(&false), scope)?;

    let kind = unify_kinds([then.kind(), otherwise.kind()]);
    let (Ok(kind), false) = (kind, boxed_condition) else {
        walk.stats.fallbacks += 1;
        let values = pick
            .iter()
            .enumerate()
            .map(|(i, &p)| if p { then } else { otherwise }.value_at(i))
            .collect();
        return Ok(Column::from_values(values));
    };
    walk.stats.kernels += 1;
    // With the kinds unified, an arm that is not of the node's kind is the
    // NULL wildcard.
    Ok(match kind {
        None => Column::Null(len),
        Some(Kind::F) => {
            let arm = |leaf| match leaf {
                Leaf::Scalar(Value::Float(x)) => Arm::Const(*x),
                Leaf::Alias(View::F64(data, nulls)) => Arm::Lanes(data, nulls),
                _ => Arm::Null,
            };
            let (data, nulls) = blend(&pick, arm(then), arm(otherwise));
            Column::F64 { data, nulls }
        }
        Some(Kind::I) => {
            let arm = |leaf| match leaf {
                Leaf::Scalar(Value::Int(x)) => Arm::Const(*x),
                Leaf::Alias(View::I64(data, nulls)) => Arm::Lanes(data, nulls),
                _ => Arm::Null,
            };
            let (data, nulls) = blend(&pick, arm(then), arm(otherwise));
            Column::I64 { data, nulls }
        }
        Some(Kind::B) => {
            let arm = |leaf| match leaf {
                Leaf::Scalar(Value::Bool(x)) => Arm::Const(*x),
                Leaf::Alias(View::Bool(data, nulls)) => Arm::Lanes(data, nulls),
                _ => Arm::Null,
            };
            let (data, nulls) = blend(&pick, arm(then), arm(otherwise));
            Column::Bool { data, nulls }
        }
    })
}

/// Scatter-merge per-arm result pieces into one block-length column. When
/// every piece shares one typed kind (the NULL wildcard unifies with any),
/// the merge stays typed; a kind clash means the scalar tier would have
/// produced a mixed column, so the merge drops to boxed values.
fn merge_pieces(
    pieces: Vec<(Vec<usize>, Column)>,
    len: usize,
    boxed_condition: bool,
    walk: &mut Walk<'_>,
) -> SqlResult<Column> {
    let kind = unify_kinds(pieces.iter().map(|(_, piece)| view_kind(piece.view())));
    let (Ok(kind), false) = (kind, boxed_condition) else {
        walk.stats.fallbacks += 1;
        let mut out: Vec<Value> = vec![Value::Null; len];
        for (positions, piece) in &pieces {
            for (k, &pos) in positions.iter().enumerate() {
                out[pos] = piece.value_at(k);
            }
        }
        return Ok(Column::from_values(out));
    };
    walk.stats.kernels += 1;
    let mut nulls = NullMask::none(len);
    let scatter_nulls = |nulls: &mut NullMask, positions: &[usize], piece: &NullMask| {
        for (k, &pos) in positions.iter().enumerate() {
            if piece.is_null(k) {
                nulls.set_null(pos);
            }
        }
    };
    match kind {
        None => Ok(Column::Null(len)),
        Some(Kind::F) => {
            let mut data = vec![0.0f64; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::F64 { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::F64 { data, nulls })
        }
        Some(Kind::I) => {
            let mut data = vec![0i64; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::I64 { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::I64 { data, nulls })
        }
        Some(Kind::B) => {
            let mut data = vec![false; len];
            for (positions, piece) in &pieces {
                match piece {
                    Column::Bool { data: d, nulls: n } => {
                        for (k, &pos) in positions.iter().enumerate() {
                            data[pos] = d[k];
                        }
                        scatter_nulls(&mut nulls, positions, n);
                    }
                    _ => {
                        for &pos in positions {
                            nulls.set_null(pos);
                        }
                    }
                }
            }
            Ok(Column::Bool { data, nulls })
        }
    }
}

/// Dispatch one call site for a block: VG catalog first (catalog wins over
/// builtins, as in the scalar tier), then scalar builtins per world.
fn call_function_col(
    name: &str,
    args: &[Lanes<'_>],
    scope: &Scope<'_>,
    walk: &mut Walk<'_>,
    sel: Sel<'_>,
) -> SqlResult<Column> {
    let registry = scope.registry;
    if registry.get(name).is_err() {
        // Scalar builtin, world by world (boxed by nature).
        walk.stats.fallbacks += 1;
        let values: SqlResult<Vec<Value>> = (0..sel.len())
            .map(|k| {
                let row: Vec<Value> = args.iter().map(|c| c.view().value_at(k)).collect();
                scalar_builtin(name, &row)
            })
            .collect();
        return Ok(Column::from_values(values?));
    }

    let Some(draws) = walk.draws.as_mut() else {
        return Err(SqlError::Eval(format!(
            "derived column calls VG function `{name}`; derived columns must not draw"
        )));
    };
    walk.stats.call_sites += 1;
    // Argument columns are usually constant over the block (one parameter
    // valuation per point): share a single parameter row instead of
    // materializing one per world.
    let const_row: Option<Vec<Value>> = args.iter().map(|c| c.view().const_value()).collect();

    // A whole-block call with a constant argument row and one call index
    // for every slot is fully identified by `(name, index, row)`.
    let memo = draws
        .memo
        .zip(const_row.as_deref())
        .filter(|_| {
            sel.len() > 0
                && sel.len() == draws.worlds.len()
                && draws.counters.iter().all(|&c| c == draws.counters[0])
        })
        .and_then(|(memo, row)| Some((memo, CallSiteKey::new(name, draws.counters[0], row)?)));

    // One derived substream per selected world; the per-slot counter bumps
    // only for worlds reaching this call site (scalar tier's discipline) —
    // on a memo hit too, so later call sites see the same indices.
    if let Some(lanes) = memo.as_ref().and_then(|(memo, key)| memo.get(key)) {
        for slot in sel.slots() {
            draws.counters[slot] += 1;
        }
        walk.stats.kernels += 1;
        walk.stats.call_sites_memoised += 1;
        return Ok(Column::F64 {
            data: lanes.to_vec(),
            nulls: NullMask::none(lanes.len()),
        });
    }
    let rows: Vec<Vec<Value>> = if const_row.is_some() {
        Vec::new()
    } else {
        (0..sel.len())
            .map(|k| args.iter().map(|c| c.view().value_at(k)).collect())
            .collect()
    };
    let row = |k: usize| const_row.as_deref().unwrap_or_else(|| &rows[k]);

    // A model that keeps a draw ledger replays each slot's stream from the
    // store; `None` means this call is not ledgered and draws below.
    let replayed = match draws.ledgers {
        Some(store) => {
            let calls: Vec<LedgerCall<'_>> = sel
                .slots()
                .enumerate()
                .map(|(k, slot)| LedgerCall {
                    params: row(k),
                    world: draws.worlds[slot],
                    call_index: draws.counters[slot],
                })
                .collect();
            registry.invoke_batch_ledgered(name, &calls, &draws.seeds, store)?
        }
        None => None,
    };
    let data = match replayed {
        Some(data) => {
            for slot in sel.slots() {
                draws.counters[slot] += 1;
            }
            walk.stats.call_sites_replayed += 1;
            data
        }
        None => {
            let mut rngs = Vec::with_capacity(sel.len());
            for slot in sel.slots() {
                let counter = draws.counters[slot];
                draws.counters[slot] += 1;
                rngs.push(draws.seeds.rng_for(draws.worlds[slot], name, counter));
            }
            let mut calls: Vec<VgCallF64<'_>> = rngs
                .iter_mut()
                .enumerate()
                .map(|(k, rng)| VgCallF64 {
                    params: row(k),
                    rng,
                })
                .collect();
            registry.invoke_batch_columnar(name, &mut calls)?
        }
    };
    walk.stats.kernels += 1;
    if let Some((memo, key)) = memo {
        memo.insert(key, Arc::from(data.as_slice()));
    }
    Ok(Column::F64 {
        nulls: NullMask::none(data.len()),
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{evaluate_select_with, WorldRng};
    use crate::parser::parse_script;
    use crate::test_vg::test_registry as registry;

    /// Columnar outputs must equal per-world scalar walks value for value
    /// — the tier's defining contract, checked against the scalar executor
    /// itself — with the same logical VG invocation count in the catalog.
    fn assert_columns_match_scalar(
        src: &str,
        params: &[(&str, Value)],
        worlds: &[u64],
    ) -> ColumnarStats {
        assert_walk_matches_scalar(src, params, worlds, None, None, "Jitter")
    }

    /// [`assert_columns_match_scalar`] for a walk handed a memo and/or a
    /// ledger store; `counted` is the function whose catalog invocations
    /// must agree (unless the memo served a call site: a memo hit draws
    /// and counts nothing, a replayed call counts like a drawn one).
    fn assert_walk_matches_scalar(
        src: &str,
        params: &[(&str, Value)],
        worlds: &[u64],
        memo: Option<&dyn CallSiteMemo>,
        ledgers: Option<&dyn LedgerStore>,
        counted: &str,
    ) -> ColumnarStats {
        let script = parse_script(src).unwrap();
        let (typed_registry, scalar_registry) = (registry(), registry());
        let params: HashMap<String, Value> = params
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect();
        let seeds = SeedManager::new(11);
        let (cols, stats) = evaluate_select_columns_with(
            &script.select,
            &typed_registry,
            &params,
            seeds,
            worlds,
            memo,
            ledgers,
        )
        .unwrap();
        for (slot, &world) in worlds.iter().enumerate() {
            let row = evaluate_select_with(
                &script.select,
                &scalar_registry,
                &params,
                WorldRng::per_call(seeds, world),
            )
            .unwrap();
            assert_eq!(cols.len(), row.len());
            for ((alias, column), (scalar_alias, value)) in cols.iter().zip(&row) {
                assert_eq!(alias, scalar_alias);
                assert_eq!(
                    &column.value_at(slot),
                    value,
                    "`{src}` world {world} column `{alias}` diverged from the scalar tier"
                );
            }
        }
        if stats.call_sites_memoised == 0 {
            assert_eq!(
                typed_registry.stats(counted).unwrap().invocations,
                scalar_registry.stats(counted).unwrap().invocations,
                "`{src}`: one logical invocation per world reaching a call site, as in the \
                 scalar tier"
            );
        }
        stats
    }

    #[test]
    fn typed_path_covers_numeric_scenarios_without_fallbacks() {
        let stats = assert_columns_match_scalar(
            "DECLARE PARAMETER @base AS SET (100);\n\
             SELECT Jitter(@base) AS demand,\n\
                    Jitter(@base + 10) AS capacity,\n\
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload\n\
             INTO results;",
            &[("base", Value::Int(100))],
            &[0, 1, 5, 9, 1_000_003],
        );
        assert!(stats.kernels > 0);
        assert_eq!(
            stats.fallbacks, 0,
            "an all-numeric scenario must never unbox"
        );
    }

    #[test]
    fn conditional_vg_calls_keep_per_world_counters_aligned() {
        assert_columns_match_scalar(
            "SELECT Jitter(0) AS first,\n\
             CASE WHEN first < 0.5 THEN Jitter(100) ELSE -1 END AS maybe,\n\
             Jitter(200) AS last\n\
             INTO r;",
            &[],
            &(0..32u64).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn short_circuit_rhs_only_runs_for_unresolved_worlds() {
        assert_columns_match_scalar(
            "SELECT Jitter(0) AS first,\n\
             CASE WHEN first < 0.5 AND Jitter(0) < 0.5 THEN 1 ELSE 0 END AS both,\n\
             CASE WHEN first < 0.5 OR Jitter(0) < 0.5 THEN 1 ELSE 0 END AS either,\n\
             Jitter(9) AS last\n\
             INTO r;",
            &[],
            &(0..48u64).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn three_valued_logic_nulls_and_builtins_match() {
        let stats = assert_columns_match_scalar(
            "DECLARE PARAMETER @x AS SET (0);\n\
             SELECT NULL AND Jitter(0) > 0 AS null_and,\n\
                    NULL OR Jitter(1) > 0 AS null_or,\n\
                    COALESCE(NULL, @x) AS co,\n\
                    GREATEST(SQRT(ABS(@x - 4)), 1) AS g,\n\
                    1 / 0 AS div0,\n\
                    CASE WHEN 1/0 > 1 THEN 1 ELSE 0 END AS guarded,\n\
                    -Jitter(2) AS n,\n\
                    NOT (Jitter(3) > 0.5) AS inv,\n\
                    Jitter(4) % 0.25 AS wrapped\n\
             INTO r;",
            &[("x", Value::Int(7))],
            &(0..24u64).collect::<Vec<_>>(),
        );
        assert!(stats.fallbacks > 0, "builtins route through the fallback");
    }

    /// One walk under the whole-block selection and one under the
    /// selection vector naming the same slots — the walk every node took
    /// before there was a dense path. Lanes (NULL masks included) and
    /// errors must agree; the two walks' accounting is returned.
    fn walk_dense_and_selected(src: &str, worlds: &[u64]) -> Option<[ColumnarStats; 2]> {
        let script = parse_script(src).unwrap();
        let registry = registry();
        let params = HashMap::from([("x".to_string(), Value::Int(3))]);
        let everything: Vec<usize> = (0..worlds.len()).collect();
        let walk = |sel: Sel<'_>| {
            let draws = DrawState {
                seeds: SeedManager::new(11),
                worlds,
                counters: vec![0; worlds.len()],
                memo: None,
                ledgers: None,
            };
            walk_select(&script.select, &registry, &params, draws, sel)
        };
        let dense = walk(Sel::All(worlds.len()));
        let selected = walk(Sel::Lanes(&everything));
        let (Ok((dense, dense_stats)), Ok((selected, selected_stats))) = (&dense, &selected) else {
            let message = |r: &SqlResult<_>| r.as_ref().map(|_| ()).map_err(|e| e.to_string());
            assert_eq!(message(&dense), message(&selected), "`{src}`");
            return None;
        };
        for ((alias, d), (_, s)) in dense.iter().zip(selected) {
            for i in 0..worlds.len() {
                let same = match (d.value_at(i), s.value_at(i)) {
                    (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                    (a, b) => a == b,
                };
                assert!(same, "`{src}` column `{alias}` lane {i}");
            }
        }
        Some([*dense_stats, *selected_stats])
    }

    #[test]
    fn dense_and_selected_walks_agree_lane_for_lane_and_node_for_node() {
        let cases = [
            // Leaf arms: every alias is borrowed, nothing is gathered.
            "DECLARE PARAMETER @x AS SET (3);\n\
             SELECT Jitter(0) AS u, Jitter(1) AS v,\n\
             CASE WHEN u < 0.5 THEN 1 ELSE 0 END AS lit,\n\
             CASE WHEN u < 0.5 THEN v ELSE @x END AS alias_or_param,\n\
             CASE WHEN u < 0.5 THEN v END AS no_else,\n\
             CASE WHEN NULL THEN 1 ELSE u END AS null_cond,\n\
             CASE WHEN u < 0.5 THEN 1 ELSE 2.5 END AS mixed,\n\
             CASE WHEN u < 9 THEN 1 ELSE 2.5 END AS one_arm_reached,\n\
             CASE WHEN lit = 1 THEN no_else ELSE lit END AS null_lanes INTO r;",
            // An unreached leaf is never looked up.
            "DECLARE PARAMETER @gone AS SET (0);\n\
             SELECT CASE WHEN 1 = 0 THEN @gone ELSE 7 END AS v INTO r;",
            // A reached one is, with the scalar tier's message.
            "DECLARE PARAMETER @gone AS SET (0);\n\
             SELECT CASE WHEN 1 = 1 THEN @gone ELSE 7 END AS v INTO r;",
            "SELECT CASE WHEN 1 = 1 THEN nope END AS v INTO r;",
            "SELECT CASE WHEN 'a' THEN 1 ELSE 0 END AS v INTO r;",
            "SELECT CASE WHEN 1 = 1 THEN 'a' ELSE 0 END AS v INTO r;",
        ];
        let blocks: [&[u64]; 3] = [&[7], &[3, 1, 4, 1, 5, 9, 2, 6], &[]];
        for src in cases {
            for worlds in blocks {
                let Some([dense, selected]) = walk_dense_and_selected(src, worlds) else {
                    continue;
                };
                assert_eq!(dense.gathers, 0, "`{src}`");
                assert_eq!(
                    ColumnarStats {
                        gathers: 0,
                        ..selected
                    },
                    dense,
                    "`{src}` at {} lanes",
                    worlds.len()
                );
            }
        }
        // Arms that are not leaves keep the selection path even from the
        // top: the arm reads `u` through the selection either way, the
        // condition reads it whole only under the whole-block selection.
        let gated = "SELECT Jitter(0) AS u,\n\
             CASE WHEN u < 0.5 THEN u + Jitter(2) ELSE -u END AS arm,\n\
             CASE WHEN u < 0.5 AND u > 0.1 THEN 1 ELSE 0 END AS rhs INTO r;";
        let [dense, selected] = walk_dense_and_selected(gated, &[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_eq!(
            dense.gathers, 3,
            "both arms of `arm`, the AND's right-hand side"
        );
        assert_eq!(selected.gathers, 5, "plus the two conditions");
        assert_eq!(
            ColumnarStats {
                gathers: 0,
                ..selected
            },
            ColumnarStats {
                gathers: 0,
                ..dense
            }
        );
    }

    #[test]
    fn mixed_case_arms_fall_back_to_boxed_merge() {
        let stats = assert_columns_match_scalar(
            "SELECT Jitter(0) AS u,\n\
             CASE WHEN u < 0.5 THEN 1 ELSE 2.5 END AS mixed\n\
             INTO r;",
            &[],
            &(0..16u64).collect::<Vec<_>>(),
        );
        assert!(
            stats.fallbacks > 0,
            "an Int/Float arm mix cannot stay typed"
        );
    }

    #[test]
    fn integer_overflow_falls_back_to_lane_promotion() {
        let big = i64::MAX;
        let stats = assert_columns_match_scalar(
            &format!("SELECT {big} + 1 AS bumped, {big} * 2 AS dbl INTO r;"),
            &[],
            &[0, 1, 2],
        );
        assert!(stats.fallbacks >= 2);
    }

    #[test]
    fn errors_match_the_scalar_tier() {
        let registry = registry();
        let seeds = SeedManager::new(0);
        let cases = [
            (
                "DECLARE PARAMETER @missing AS SET (0);\nSELECT @missing AS v INTO r;",
                "unbound parameter @missing",
            ),
            (
                "SELECT nope + 1 AS v INTO r;",
                "unknown column or alias `nope`",
            ),
            ("SELECT NoSuchFn(1) AS v INTO r;", "function `NoSuchFn`"),
            (
                "SELECT Jitter() AS v INTO r;",
                "expects 1 parameters, got 0",
            ),
            // Through the per-value fallback both tiers share.
            ("SELECT 'a' + 1 AS v INTO r;", "invalid operation"),
        ];
        for (src, needle) in cases {
            let script = parse_script(src).unwrap();
            let typed =
                evaluate_select_columns(&script.select, &registry, &HashMap::new(), seeds, &[0, 1])
                    .unwrap_err()
                    .to_string();
            let scalar = evaluate_select_with(
                &script.select,
                &registry,
                &HashMap::new(),
                WorldRng::per_call(seeds, 0),
            )
            .unwrap_err()
            .to_string();
            assert_eq!(typed, scalar, "`{src}`");
            assert!(typed.contains(needle), "`{src}`: {typed}");
        }
    }

    #[test]
    fn empty_block_is_a_no_op() {
        let script = parse_script("SELECT Jitter(0) AS v INTO r;").unwrap();
        let registry = registry();
        let (out, _) = evaluate_select_columns(
            &script.select,
            &registry,
            &HashMap::new(),
            SeedManager::new(0),
            &[],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].1.is_empty());
        assert_eq!(registry.stats("Jitter").unwrap().invocations, 0);
    }

    #[test]
    fn sniffing_round_trips_every_uniform_kind() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::Int(1), Value::Null, Value::Int(-3)],
            vec![Value::Float(0.5), Value::Float(f64::NAN)],
            vec![Value::Bool(true), Value::Null],
            vec![Value::Null, Value::Null],
            vec![Value::Int(1), Value::Float(2.0)],
            vec![Value::Str("x".into()), Value::Int(1)],
        ];
        for values in cases {
            let col = Column::from_values(values.clone());
            assert_eq!(col.len(), values.len());
            // NaN lanes break Vec<Value> equality; compare per lane.
            for (i, v) in values.iter().enumerate() {
                match (&col.value_at(i), v) {
                    (Value::Float(a), Value::Float(b)) => {
                        assert_eq!(a.to_bits(), b.to_bits())
                    }
                    (got, want) => assert_eq!(got, want),
                }
            }
        }
        assert!(matches!(
            Column::from_values(vec![Value::Int(1), Value::Null]),
            Column::I64 { .. }
        ));
        assert!(matches!(
            Column::from_values(vec![Value::Int(1), Value::Float(1.0)]),
            Column::Boxed(_)
        ));
        assert!(matches!(
            Column::from_values(vec![Value::Null]),
            Column::Null(1)
        ));
    }

    #[test]
    fn to_f64_samples_matches_the_per_value_rule() {
        let per_value = |values: &[Value]| -> Vec<u64> {
            values
                .iter()
                .map(|v| sample_f64(v).unwrap().to_bits())
                .collect()
        };
        let values = vec![
            Value::Int(2),
            Value::Null,
            Value::Float(0.5),
            Value::Float(f64::NAN),
            Value::Bool(true),
        ];
        let want = per_value(&values);
        assert_eq!(want[0], 2.0f64.to_bits());
        assert!(f64::from_bits(want[1]).is_nan(), "NULL encodes as NaN");
        assert_eq!(want[4], 1.0f64.to_bits());
        // The typed-boundary conversion must agree with the scalar tier's
        // per-value rule for every representation the sniffer can pick.
        for col in [
            Column::Boxed(values),
            Column::from_values(vec![Value::Int(2), Value::Null]),
            Column::from_values(vec![Value::Float(0.5), Value::Float(f64::NAN), Value::Null]),
            Column::from_values(vec![Value::Bool(true), Value::Null, Value::Bool(false)]),
            Column::Null(3),
        ] {
            let got: Vec<u64> = to_f64_samples(&col)
                .unwrap()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, per_value(&col.to_values()));
        }
        assert!(to_f64_samples(&Column::Boxed(vec![Value::Str("x".into())])).is_err());
    }

    /// An unbounded memo for the walker tests.
    #[derive(Default)]
    struct MapMemo(std::sync::Mutex<HashMap<CallSiteKey, Arc<[f64]>>>);

    impl CallSiteMemo for MapMemo {
        fn get(&self, key: &CallSiteKey) -> Option<Arc<[f64]>> {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn insert(&self, key: CallSiteKey, lanes: Arc<[f64]>) {
            self.0.lock().unwrap().insert(key, lanes);
        }
    }

    fn bits(columns: &[(String, Column)]) -> Vec<(String, Vec<Option<u64>>)> {
        columns
            .iter()
            .map(|(alias, c)| {
                let lanes = (0..c.len())
                    .map(|i| match c.value_at(i) {
                        Value::Null => None,
                        v => Some(v.as_f64().unwrap().to_bits()),
                    })
                    .collect();
                (alias.clone(), lanes)
            })
            .collect()
    }

    #[test]
    fn memo_hit_is_bit_identical_and_counts_like_a_miss() {
        let script = parse_script(
            "DECLARE PARAMETER @base AS SET (100);\n\
             SELECT Jitter(@base) AS demand,\n\
                    Jitter(@base) AS again,\n\
                    Jitter(@base + 0.5) AS capacity,\n\
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload\n\
             INTO results;",
        )
        .unwrap();
        let registry = registry();
        let params = HashMap::from([("base".to_string(), Value::Int(100))]);
        let seeds = SeedManager::new(11);
        let worlds: Vec<u64> = (0..32).map(|w| w * 7 + 3).collect();
        let (plain, plain_stats) =
            evaluate_select_columns(&script.select, &registry, &params, seeds, &worlds).unwrap();
        assert_eq!(plain_stats.call_sites, 3);
        assert_eq!(plain_stats.call_sites_memoised, 0);
        let drawn = registry.stats("Jitter").unwrap().invocations;

        let memo = MapMemo::default();
        let walk = || {
            evaluate_select_columns_with(
                &script.select,
                &registry,
                &params,
                seeds,
                &worlds,
                Some(&memo),
                None,
            )
            .unwrap()
        };
        let (cold, cold_stats) = walk();
        let (warm, warm_stats) = walk();
        assert_eq!(bits(&cold), bits(&plain));
        assert_eq!(bits(&warm), bits(&plain));
        assert_eq!(cold_stats, plain_stats, "a cold memo changes nothing");
        assert_eq!(warm_stats.call_sites_memoised, 3);
        assert_eq!(
            (
                warm_stats.kernels,
                warm_stats.fallbacks,
                warm_stats.call_sites
            ),
            (
                plain_stats.kernels,
                plain_stats.fallbacks,
                plain_stats.call_sites
            ),
            "a hit advances the accounting exactly as a miss"
        );
        assert_eq!(
            registry.stats("Jitter").unwrap().invocations,
            2 * drawn,
            "the warm walk drew nothing"
        );
        // Same function, same argument, different call index: two entries
        // (the substreams differ, and so do the lanes).
        assert_eq!(memo.0.lock().unwrap().len(), 3);
        assert_ne!(bits(&plain)[0].1, bits(&plain)[1].1);

        // A different argument tuple is a different entry, not a stale hit.
        let other = HashMap::from([("base".to_string(), Value::Int(101))]);
        let (moved, moved_stats) = evaluate_select_columns_with(
            &script.select,
            &registry,
            &other,
            seeds,
            &worlds,
            Some(&memo),
            None,
        )
        .unwrap();
        let (moved_plain, _) =
            evaluate_select_columns(&script.select, &registry, &other, seeds, &worlds).unwrap();
        assert_eq!(moved_stats.call_sites_memoised, 0);
        assert_eq!(bits(&moved), bits(&moved_plain));
    }

    #[test]
    fn partial_block_and_alias_fed_calls_are_never_memoised() {
        let registry = registry();
        let seeds = SeedManager::new(5);
        let worlds: Vec<u64> = (0..32).collect();
        // Per script: how many call sites may be memo-served on a re-walk.
        let cases = [
            // `first` is eligible; the call under the data-dependent arm
            // covers part of the block, and leaves the per-slot counters
            // ragged for `last`.
            (
                "SELECT Jitter(0) AS first,\n\
                 CASE WHEN first < 0.5 THEN Jitter(100) ELSE -1 END AS maybe,\n\
                 Jitter(200) AS last INTO r;",
                1,
            ),
            // Same, under a short-circuiting AND.
            (
                "SELECT Jitter(0) AS first,\n\
                 CASE WHEN first < 0.5 AND Jitter(0) < 0.5 THEN 1 ELSE 0 END AS both,\n\
                 Jitter(9) AS last INTO r;",
                1,
            ),
            // An argument fed by an earlier stochastic alias is not
            // constant over the block.
            ("SELECT Jitter(0) AS first, Jitter(first) AS fed INTO r;", 1),
            // A string argument has no bit-pattern key.
            ("SELECT Jitter('x') AS bad INTO r;", 0),
        ];
        for (src, eligible) in cases {
            let script = parse_script(src).unwrap();
            let memo = MapMemo::default();
            let walk = || {
                evaluate_select_columns_with(
                    &script.select,
                    &registry,
                    &HashMap::new(),
                    seeds,
                    &worlds,
                    Some(&memo),
                    None,
                )
            };
            let plain =
                evaluate_select_columns(&script.select, &registry, &HashMap::new(), seeds, &worlds);
            let (Ok((plain, _)), Ok((cold, _)), Ok((warm, warm_stats))) = (plain, walk(), walk())
            else {
                assert!(
                    walk().is_err(),
                    "`{src}` must fail with the memo as without"
                );
                assert!(memo.0.lock().unwrap().is_empty());
                continue;
            };
            assert_eq!(bits(&cold), bits(&plain), "`{src}`");
            assert_eq!(bits(&warm), bits(&plain), "`{src}`");
            assert_eq!(warm_stats.call_sites_memoised, eligible, "`{src}`");
            assert_eq!(memo.0.lock().unwrap().len() as u64, eligible, "`{src}`");
        }
    }

    /// A ledger store for the walker tests: one flat map, cleared when it
    /// would exceed `max_entries`, counting every ledger it was handed.
    struct MapLedgers {
        table: std::sync::Mutex<HashMap<(String, u64, u64), Vec<f64>>>,
        max_entries: usize,
        max_len: usize,
        inserted: std::sync::atomic::AtomicUsize,
    }

    impl MapLedgers {
        fn new(max_entries: usize, max_len: usize) -> Self {
            MapLedgers {
                table: Default::default(),
                max_entries,
                max_len,
                inserted: Default::default(),
            }
        }
        fn inserted(&self) -> usize {
            self.inserted.load(std::sync::atomic::Ordering::SeqCst)
        }
        fn lens(&self) -> Vec<usize> {
            let mut lens: Vec<usize> = self.table.lock().unwrap().values().map(Vec::len).collect();
            lens.sort_unstable();
            lens.dedup();
            lens
        }
    }

    impl LedgerStore for MapLedgers {
        fn max_len(&self) -> usize {
            self.max_len
        }
        fn read(
            &self,
            function: &str,
            keys: &[(u64, u64)],
            visit: &mut dyn FnMut(usize, Option<&[f64]>),
        ) {
            let table = self.table.lock().unwrap();
            for (i, &(index, world)) in keys.iter().enumerate() {
                let ledger = table.get(&(function.to_owned(), index, world));
                visit(i, ledger.map(Vec::as_slice));
            }
        }
        fn insert(&self, function: &str, drawn: Vec<((u64, u64), Vec<f64>)>) {
            let mut table = self.table.lock().unwrap();
            for ((index, world), ledger) in drawn {
                self.inserted
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if table.len() >= self.max_entries {
                    table.clear();
                }
                table.insert((function.to_owned(), index, world), ledger);
            }
        }
    }

    /// One walk of `src` with `ledgers` (and optionally a memo) against
    /// per-world scalar walks: values, and `Walk`'s catalog invocations.
    fn assert_ledgered_matches_scalar(
        src: &str,
        params: &[(&str, Value)],
        worlds: &[u64],
        memo: Option<&dyn CallSiteMemo>,
        ledgers: &MapLedgers,
    ) -> ColumnarStats {
        assert_walk_matches_scalar(src, params, worlds, memo, Some(ledgers), "Walk")
    }

    const TWO_WALKS: &str = "DECLARE PARAMETER @n AS SET (0);\n\
         SELECT Walk(@n, 0.5) AS a, Walk(@n, @n) AS b INTO r;";

    #[test]
    fn ledger_store_hit_extend_and_miss_are_bit_identical() {
        let ledgers = MapLedgers::new(usize::MAX, 1 << 10);
        let worlds: Vec<u64> = (0..16).map(|w| w * 5 + 1).collect();
        let walk = |n: i64, worlds: &[u64]| {
            let stats = assert_ledgered_matches_scalar(
                TWO_WALKS,
                &[("n", Value::Int(n))],
                worlds,
                None,
                &ledgers,
            );
            assert_eq!((stats.call_sites, stats.call_sites_replayed), (2, 2));
            assert_eq!(stats.fallbacks, 0, "a replayed lane is an f64 lane");
        };
        // Miss: two call sites (two call indices, so two streams per world)
        // draw 6 cells rounded up to 8.
        walk(5, &worlds);
        assert_eq!((ledgers.inserted(), ledgers.lens()), (32, vec![8]));
        // Hit: same tuple, another tuple on the same streams, a shorter and
        // a negative horizon, and the longest the drawn cells cover.
        for n in [5, 3, -4, 0, 7] {
            walk(n, &worlds);
        }
        assert_eq!(ledgers.inserted(), 32, "hits draw nothing");
        // Extend: one cell more than kept redraws every stream, longer.
        walk(8, &worlds);
        assert_eq!((ledgers.inserted(), ledgers.lens()), (64, vec![16]));
        // A block overlapping the first: only the unseen worlds draw.
        let shifted: Vec<u64> = worlds[8..].iter().copied().chain(100..108).collect();
        walk(8, &shifted);
        assert_eq!(ledgers.inserted(), 64 + 16);
    }

    #[test]
    fn replayed_lanes_feed_the_call_site_memo() {
        let (ledgers, memo) = (MapLedgers::new(usize::MAX, 1 << 10), MapMemo::default());
        let worlds: Vec<u64> = (0..32).collect();
        let walk = || {
            let n = [("n", Value::Int(9))];
            assert_ledgered_matches_scalar(TWO_WALKS, &n, &worlds, Some(&memo), &ledgers)
        };
        let cold = walk();
        assert_eq!((cold.call_sites_memoised, cold.call_sites_replayed), (0, 2));
        let warm = walk();
        assert_eq!((warm.call_sites_memoised, warm.call_sites_replayed), (2, 0));
        assert_eq!(warm.kernels, cold.kernels);
    }

    #[test]
    fn ragged_rows_and_partial_selections_replay_per_slot() {
        // `gated` covers part of the block with an argument fed by a
        // stochastic alias; it leaves the call counters ragged for
        // `ragged`, whose horizon differs per world as well.
        let src = "SELECT Jitter(0) AS first,\n\
             CASE WHEN first < 0.5 THEN Walk(3, first) ELSE -1 END AS gated,\n\
             Walk(CASE WHEN first < 0.5 THEN 2 ELSE 6 END, 0) AS ragged INTO r;";
        let ledgers = MapLedgers::new(usize::MAX, 1 << 10);
        let worlds: Vec<u64> = (0..48).collect();
        for _ in 0..2 {
            let stats = assert_ledgered_matches_scalar(src, &[], &worlds, None, &ledgers);
            assert_eq!((stats.call_sites, stats.call_sites_replayed), (3, 2));
        }
        // One stream per world reaching `gated`, one per world for
        // `ragged` — at two lengths — and the second walk drew nothing.
        assert!(48 < ledgers.inserted() && ledgers.inserted() < 96);
        assert_eq!(ledgers.lens(), vec![4, 8]);
    }

    #[test]
    fn a_two_entry_ledger_store_overflows_and_keeps_serving() {
        let ledgers = MapLedgers::new(2, 1 << 10);
        let worlds: Vec<u64> = (0..8).collect();
        for n in [4, 4, 9, 2, 9] {
            let n = [("n", Value::Int(n))];
            let stats = assert_ledgered_matches_scalar(TWO_WALKS, &n, &worlds, None, &ledgers);
            assert_eq!(stats.call_sites_replayed, 2);
        }
        assert!(ledgers.table.lock().unwrap().len() <= 2);
        assert!(ledgers.inserted() > 16, "lost ledgers are drawn again");
    }

    #[test]
    fn calls_the_store_cannot_hold_or_the_model_refuses_draw_as_without_it() {
        // 11 cells against a 4-cell store: the call site draws.
        let ledgers = MapLedgers::new(usize::MAX, 4);
        let worlds: Vec<u64> = (0..8).collect();
        let n = [("n", Value::Int(10))];
        let stats = assert_ledgered_matches_scalar(TWO_WALKS, &n, &worlds, None, &ledgers);
        assert_eq!((stats.call_sites, stats.call_sites_replayed), (2, 0));
        assert_eq!(ledgers.inserted(), 0);
        // …and Jitter keeps no ledger at all.
        let stats = assert_ledgered_matches_scalar(
            "SELECT Jitter(1) AS v INTO r;",
            &[],
            &worlds,
            None,
            &ledgers,
        );
        assert_eq!((stats.call_sites, stats.call_sites_replayed), (1, 0));

        // An argument row the model rejects fails the walk with the scalar
        // tier's error, store or no store.
        let ledgers = MapLedgers::new(usize::MAX, 1 << 10);
        let registry = registry();
        let seeds = SeedManager::new(0);
        for src in [
            "SELECT Walk(2000, 0) AS v INTO r;",
            "SELECT Walk(2, 'x') AS v INTO r;",
            "SELECT Walk(2) AS v INTO r;",
        ] {
            let script = parse_script(src).unwrap();
            let run = |ledgers: Option<&dyn LedgerStore>| {
                let none = HashMap::new();
                evaluate_select_columns_with(
                    &script.select,
                    &registry,
                    &none,
                    seeds,
                    &[0, 1],
                    None,
                    ledgers,
                )
                .unwrap_err()
                .to_string()
            };
            let scalar = evaluate_select_with(
                &script.select,
                &registry,
                &HashMap::new(),
                WorldRng::per_call(seeds, 0),
            )
            .unwrap_err()
            .to_string();
            assert_eq!(run(Some(&ledgers)), scalar, "`{src}`");
            assert_eq!(run(None), scalar, "`{src}`");
        }
        assert_eq!(ledgers.inserted(), 0);
    }

    /// The per-world reference for derived columns: bind the sample lanes
    /// as floats, `eval_expr` the rest, NULL → NaN at the end.
    fn derive_per_world(
        select: &SelectInto,
        registry: &VgRegistry,
        params: &HashMap<String, Value>,
        samples: &HashMap<String, Vec<f64>>,
        lanes: usize,
    ) -> Vec<(String, Vec<u64>)> {
        use crate::executor::{eval_expr, EvalContext};
        let mut out: Vec<(String, Vec<u64>)> = select
            .items
            .iter()
            .filter(|i| !samples.contains_key(&i.alias))
            .map(|i| (i.alias.clone(), Vec::new()))
            .collect();
        for w in 0..lanes {
            let mut rng = prophet_vg::rng::Xoshiro256StarStar::seed_from_u64(0);
            let mut ctx = EvalContext::new(registry, params, &mut rng);
            for item in &select.items {
                if let Some(lane) = samples.get(&item.alias) {
                    ctx.bind_alias(&item.alias, Value::Float(lane[w]));
                } else {
                    let v = eval_expr(&item.expr, &mut ctx).unwrap();
                    let x = sample_f64(&v).unwrap();
                    ctx.bind_alias(&item.alias, v);
                    let slot = out.iter_mut().find(|(a, _)| *a == item.alias).unwrap();
                    slot.1.push(x.to_bits());
                }
            }
        }
        out
    }

    #[test]
    fn derived_block_matches_the_per_world_reference() {
        let script = parse_script(
            "DECLARE PARAMETER @t AS SET (3);\n\
             SELECT Jitter(0) AS demand,\n\
                    demand * 2 AS doubled,\n\
                    Jitter(1) AS capacity,\n\
                    CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload,\n\
                    overload + doubled + @t AS chained,\n\
                    CASE WHEN demand < -1 THEN 1 END AS never,\n\
                    CASE WHEN capacity > 0.5 THEN capacity / (overload - 1) END AS holes,\n\
                    NOT (demand = demand) AS nan_probe,\n\
                    GREATEST(demand, capacity) AS best\n\
             INTO r;",
        )
        .unwrap();
        let registry = registry();
        let params = HashMap::from([("t".to_string(), Value::Int(3))]);
        let lanes = 9;
        // Sample lanes with NaNs (a collapsed NULL or a genuine NaN draw —
        // the encoding cannot tell, and neither path may treat it as NULL).
        let samples = HashMap::from([
            (
                "demand".to_string(),
                vec![0.1, f64::NAN, 0.9, 0.4, -0.0, 0.7, f64::NAN, 0.2, 0.6],
            ),
            (
                "capacity".to_string(),
                vec![0.5, 0.3, f64::NAN, 0.8, 0.0, 0.6, f64::NAN, 0.95, 0.55],
            ),
        ]);
        let (block, stats) =
            evaluate_derived_columns(&script.select, &registry, &params, &samples, lanes).unwrap();
        let aliases: Vec<&str> = block.iter().map(|(a, _)| a.as_str()).collect();
        assert_eq!(
            aliases,
            [
                "doubled",
                "overload",
                "chained",
                "never",
                "holes",
                "nan_probe",
                "best"
            ],
            "derived items only, in declaration order"
        );
        // The always-NULL item was mask state until it left the tier…
        assert!(block[3].1.iter().all(|x| x.is_nan()));
        // …and a NaN source lane is a value: `NaN = NaN` is false, so its
        // negation is a valid TRUE, where a NULL lane would stay NULL.
        assert_eq!(block[5].1[1], 1.0);
        // `overload` and `never` blend; `holes` has an operator in its arm
        // and reads its aliases through the selection.
        assert!(stats.kernels > 0 && stats.gathers > 0);
        let got: Vec<(String, Vec<u64>)> = block
            .iter()
            .map(|(alias, xs)| (alias.clone(), xs.iter().map(|x| x.to_bits()).collect()))
            .collect();
        let want = derive_per_world(&script.select, &registry, &params, &samples, lanes);
        assert_eq!(got, want);
        assert!(
            f64::from_bits(got[4].1[3]).is_finite() && f64::from_bits(got[4].1[0]).is_nan(),
            "`holes` mixes valid lanes with NULLs: {:?}",
            got[4].1
        );
    }

    #[test]
    fn derived_block_rejects_draws_and_ragged_lanes() {
        let script = parse_script(
            "SELECT Jitter(0) AS demand, Jitter(1) AS capacity,\n\
             CASE WHEN capacity < demand THEN 1 ELSE 0 END AS overload INTO r;",
        )
        .unwrap();
        let registry = registry();
        let run = |samples: &HashMap<String, Vec<f64>>, lanes| {
            evaluate_derived_columns(&script.select, &registry, &HashMap::new(), samples, lanes)
                .unwrap_err()
                .to_string()
        };
        // `capacity` is not bound, so the walk reaches its VG call.
        let missing = HashMap::from([("demand".to_string(), vec![0.5; 4])]);
        assert!(run(&missing, 4).contains("must not draw"));
        assert_eq!(registry.stats("Jitter").unwrap().invocations, 0);
        let ragged = HashMap::from([
            ("demand".to_string(), vec![0.5; 4]),
            ("capacity".to_string(), vec![0.5; 3]),
        ]);
        assert!(run(&ragged, 4).contains("`capacity` has 3 lanes, the block has 4"));
        // An alias declared later is not in scope, exactly as per world.
        let script = parse_script("SELECT later + 1 AS early, Jitter(0) AS later INTO r;").unwrap();
        let err = evaluate_derived_columns(
            &script.select,
            &registry,
            &HashMap::new(),
            &HashMap::from([("later".to_string(), vec![0.5; 2])]),
            2,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown column or alias `later`"));
    }

    #[test]
    fn const_detection_sees_uniform_columns_only() {
        let c = broadcast(&Value::Int(7), 4);
        assert_eq!(c.view().const_value(), Some(Value::Int(7)));
        let mixed = Column::from_values(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(mixed.view().const_value(), None);
        let nan = broadcast(&Value::Float(f64::NAN), 3);
        assert!(matches!(nan.view().const_value(), Some(Value::Float(x)) if x.is_nan()));
        assert_eq!(View::Null(2).const_value(), Some(Value::Null));
        assert_eq!(View::Null(0).const_value(), None);
    }
}
