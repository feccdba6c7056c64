//! Cross-die execution plans: splitting one query over the planes its
//! operands live on.
//!
//! Die-aware placement (this crate's `device` module) spreads distinct
//! placement groups across dies so independent queries execute in
//! parallel. The price: a single query whose operands span planes can no
//! longer compile to one MWS program — a latch bank is per-plane, so the
//! planner's [`PlanError::PlaneMismatch`] used to be a hard error. This
//! module turns that error into a *planned* cross-die execution:
//!
//! * [`partition`] splits the normalized expression by locality —
//!   children of an AND/OR that share a home compile **together**
//!   (keeping every intra-plane MWS fusion the planner can find),
//!   children that themselves span homes recurse;
//! * each single-plane piece becomes a [`Leaf`] holding an ordinary
//!   [`MwsProgram`] for that plane's chip;
//! * the controller combines the partial result pages per the
//!   [`MergeTree`] (AND/OR/XOR — the same operator that joined the
//!   pieces in the expression).
//!
//! Leaves on different dies sense concurrently, so a split query's
//! critical path is the busiest die, not the sum — exactly the
//! plane/die-level parallelism §7–§8 of the paper builds its throughput
//! on. The splitter is compiler-agnostic: the Flash-Cosmos planner and
//! the ParaBit baseline compiler both plug in as the leaf compiler, so
//! the baseline stops silently executing cross-die operands on one chip.
//! It is locality-agnostic too: the cluster router
//! ([`crate::cluster::FcCluster`]) partitions by home shard with the
//! same [`partition`] and merges with the same [`eval_merge`].

use std::collections::{BTreeMap, BTreeSet};

use fc_bits::BitVec;
use fc_ssd::topology::PlaneId;

use crate::expr::{Nnf, OperandId};
use crate::planner::{expand_thresholds, MwsProgram, PlanError};

/// How the controller combines partial result pages of a split query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOp {
    /// Bitwise AND of the partials.
    And,
    /// Bitwise OR of the partials.
    Or,
    /// Bitwise XOR of the partials (exactly two).
    Xor,
}

/// One single-plane piece of a spanning plan: a compiled program plus the
/// SSD-level plane (die + in-die plane) it runs on.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// The plane whose chip executes the program.
    pub plane: PlaneId,
    /// The compiled single-plane program.
    pub program: MwsProgram,
}

/// A partitioned expression: either one leaf (every operand shares a
/// home) or a controller merge over sub-plans.
#[derive(Debug, Clone)]
pub enum Plan<L> {
    /// Runs entirely at one home.
    Leaf(L),
    /// Controller-side combination of concurrently executable parts.
    Merge {
        /// Combining operator.
        op: MergeOp,
        /// Sub-plans (each a leaf or a nested merge).
        parts: Vec<Plan<L>>,
    },
}

/// A compiled execution plan for one expression stripe: chip programs
/// joined by controller merges.
pub type ExecPlan = Plan<Leaf>;

/// Merge recipe over a flattened leaf list: leaves are referenced by
/// their index in the [`Plan::flatten`] output (pre-order).
///
/// The plan lint's `FC002` (see `LINTS.md`) holds every spanning
/// stripe to exactly one recipe consuming exactly its leaves, once
/// each — partial or double consumption merges wrong bits silently.
#[derive(Debug, Clone)]
pub enum MergeTree {
    /// The executed page of leaf `i`.
    Leaf(usize),
    /// Combine the children's pages with the operator.
    Node(MergeOp, Vec<MergeTree>),
}

impl<L> Plan<L> {
    /// Decomposes the plan into its leaves (appended to `leaves` in
    /// pre-order) and the merge recipe referencing them by index.
    pub fn flatten(self, leaves: &mut Vec<L>) -> MergeTree {
        match self {
            Plan::Leaf(leaf) => {
                leaves.push(leaf);
                MergeTree::Leaf(leaves.len() - 1)
            }
            Plan::Merge { op, parts } => {
                MergeTree::Node(op, parts.into_iter().map(|p| p.flatten(leaves)).collect())
            }
        }
    }

    /// Whether an XOR merge occurs anywhere in the plan.
    fn has_xor_merge(&self) -> bool {
        match self {
            Plan::Leaf(_) => false,
            Plan::Merge { op, parts } => {
                *op == MergeOp::Xor || parts.iter().any(Plan::has_xor_merge)
            }
        }
    }
}

impl ExecPlan {
    /// Total sensing operations across all leaves — the paper's headline
    /// cost metric, unchanged by splitting.
    pub fn sense_count(&self) -> usize {
        match self {
            Plan::Leaf(leaf) => leaf.program.sense_count(),
            Plan::Merge { parts, .. } => parts.iter().map(ExecPlan::sense_count).sum(),
        }
    }

    /// Distinct dies the plan touches.
    pub fn die_count(&self) -> usize {
        let mut dies = BTreeSet::new();
        self.collect_dies(&mut dies);
        dies.len()
    }

    fn collect_dies(&self, dies: &mut BTreeSet<fc_ssd::topology::DieId>) {
        match self {
            Plan::Leaf(leaf) => {
                dies.insert(leaf.plane.die);
            }
            Plan::Merge { parts, .. } => {
                for p in parts {
                    p.collect_dies(dies);
                }
            }
        }
    }
}

/// Combines executed leaf pages per the merge recipe. Each leaf page is
/// consumed exactly once (`pages[i]` is taken, not cloned).
///
/// # Panics
///
/// Panics if a referenced page is missing or already consumed — the
/// recipe and the page list must come from the same [`Plan`].
pub fn eval_merge(tree: &MergeTree, pages: &mut [Option<BitVec>]) -> BitVec {
    match tree {
        MergeTree::Leaf(i) => pages[*i].take().expect("each leaf page is consumed exactly once"),
        MergeTree::Node(op, parts) => {
            let mut acc = eval_merge(&parts[0], pages);
            for part in &parts[1..] {
                let page = eval_merge(part, pages);
                match op {
                    MergeOp::And => acc.and_assign(&page),
                    MergeOp::Or => acc.or_assign(&page),
                    MergeOp::Xor => acc.xor_assign(&page),
                }
            }
            acc
        }
    }
}

/// Partitions `nnf` by locality into single-home leaves joined by
/// controller merges. `home_of` resolves an operand to its home (a plane
/// inside a device, a shard in a cluster); `leaf` turns a sub-expression
/// whose operands all share one home into a leaf.
///
/// * An expression with one home is one leaf.
/// * An AND/OR that spans homes buckets its single-home children by
///   home, one leaf per bucket (so co-resident children still fuse), and
///   recurses into its spanning children. Parts are ordered buckets
///   first, in key order, then spanning children in input order.
/// * A spanning XOR splits into its two sides.
/// * A spanning threshold expands to its exact OR-of-ANDs first: no
///   Boolean merge carries the partial *counts* a vote needs.
///
/// # Errors
///
/// Whatever `home_of` or `leaf` report, [`PlanError::Unplannable`] for
/// an expression without operands, and the expansion limit of a
/// spanning threshold.
pub fn partition<K, L, E, H, F>(nnf: &Nnf, home_of: &H, leaf: &mut F) -> Result<Plan<L>, E>
where
    K: Ord + Copy,
    E: From<PlanError>,
    H: Fn(OperandId) -> Result<K, E>,
    F: FnMut(K, &Nnf) -> Result<L, E>,
{
    match home(nnf, home_of)? {
        Home::One(key) => Ok(Plan::Leaf(leaf(key, nnf)?)),
        Home::Many => split(nnf, home_of, leaf),
        Home::None => {
            Err(PlanError::Unplannable("an expression needs at least one operand".into()).into())
        }
    }
}

/// Where an expression's operands live.
enum Home<K> {
    /// No operands.
    None,
    /// Every operand shares this home.
    One(K),
    /// At least two homes.
    Many,
}

/// Resolves the home of `nnf`, stopping at the second distinct key.
fn home<K, E, H>(nnf: &Nnf, home_of: &H) -> Result<Home<K>, E>
where
    K: Ord + Copy,
    H: Fn(OperandId) -> Result<K, E>,
{
    fn walk<K: Ord + Copy, E>(
        nnf: &Nnf,
        home_of: &impl Fn(OperandId) -> Result<K, E>,
        home: &mut Home<K>,
    ) -> Result<(), E> {
        match nnf {
            _ if matches!(home, Home::Many) => {}
            Nnf::Literal(l) => {
                let key = home_of(l.id)?;
                *home = match *home {
                    Home::One(k) if k != key => Home::Many,
                    _ => Home::One(key),
                };
            }
            Nnf::And(cs) | Nnf::Or(cs) | Nnf::Threshold { children: cs, .. } => {
                for c in cs {
                    walk(c, home_of, home)?;
                }
            }
            Nnf::Xor(a, b) => {
                walk(a, home_of, home)?;
                walk(b, home_of, home)?;
            }
        }
        Ok(())
    }
    let mut out = Home::None;
    walk(nnf, home_of, &mut out)?;
    Ok(out)
}

/// Splits an expression that spans homes (see [`partition`]).
fn split<K, L, E, H, F>(nnf: &Nnf, home_of: &H, leaf: &mut F) -> Result<Plan<L>, E>
where
    K: Ord + Copy,
    E: From<PlanError>,
    H: Fn(OperandId) -> Result<K, E>,
    F: FnMut(K, &Nnf) -> Result<L, E>,
{
    let (op, children) = match nnf {
        Nnf::And(cs) => (MergeOp::And, cs),
        Nnf::Or(cs) => (MergeOp::Or, cs),
        Nnf::Xor(a, b) => {
            let parts = vec![partition(a, home_of, leaf)?, partition(b, home_of, leaf)?];
            return Ok(Plan::Merge { op: MergeOp::Xor, parts });
        }
        Nnf::Threshold { .. } => return partition(&expand_thresholds(nnf)?, home_of, leaf),
        Nnf::Literal(_) => unreachable!("a literal has exactly one home"),
    };
    let mut buckets: BTreeMap<K, Vec<&Nnf>> = BTreeMap::new();
    let mut spanning = Vec::new();
    for child in children {
        match home(child, home_of)? {
            Home::One(key) => buckets.entry(key).or_default().push(child),
            _ => spanning.push(child),
        }
    }
    let mut parts = Vec::with_capacity(buckets.len() + spanning.len());
    for (key, group) in buckets {
        let joined;
        let sub = if let [one] = group[..] {
            one
        } else {
            let cs = group.into_iter().cloned().collect();
            joined = if op == MergeOp::And { Nnf::And(cs) } else { Nnf::Or(cs) };
            &joined
        };
        parts.push(Plan::Leaf(leaf(key, sub)?));
    }
    for child in spanning {
        parts.push(partition(child, home_of, leaf)?);
    }
    Ok(Plan::Merge { op, parts })
}

/// Compiles `nnf` into an [`ExecPlan`], splitting across planes where the
/// operand placement requires it. `plane_of` resolves every operand to
/// the SSD-level plane its stripe page lives on (`None` for unplaced
/// operands); `leaf_compile` lowers a single-plane sub-expression to a
/// chip program (the Flash-Cosmos planner or the ParaBit compiler).
///
/// # Errors
///
/// [`PlanError::NoPlacement`] for operands `plane_of` cannot resolve, and
/// whatever `leaf_compile` reports for a piece it cannot lower. The chip
/// XOR logic combines two latches once, so a spanning XOR must be the
/// root with literal sides ([`PlanError::UnsupportedXor`] otherwise),
/// and XOR below the root cannot span planes ([`PlanError::Unplannable`],
/// mirroring the single-plane planner, which rejects nested XOR
/// outright).
pub fn compile_spanning<P, F>(
    nnf: &Nnf,
    plane_of: &P,
    leaf_compile: &mut F,
) -> Result<ExecPlan, PlanError>
where
    P: Fn(OperandId) -> Option<PlaneId>,
    F: FnMut(&Nnf) -> Result<MwsProgram, PlanError>,
{
    let plan =
        partition(nnf, &|id| plane_of(id).ok_or(PlanError::NoPlacement(id)), &mut |plane, sub| {
            Ok(Leaf { plane, program: leaf_compile(sub)? })
        })?;
    if let Plan::Merge { parts, .. } = &plan {
        if let Nnf::Xor(a, b) = nnf {
            if !matches!((a.as_ref(), b.as_ref()), (Nnf::Literal(_), Nnf::Literal(_))) {
                return Err(PlanError::UnsupportedXor);
            }
        }
        if parts.iter().any(Plan::has_xor_merge) {
            return Err(PlanError::Unplannable(
                "XOR below the top level cannot span planes".to_string(),
            ));
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::planner::{self, PlacementMap, PlannerCaps};
    use fc_nand::geometry::WlAddr;
    use fc_ssd::topology::DieId;

    fn caps() -> PlannerCaps {
        PlannerCaps { max_inter_blocks: 4, wls_per_block: 8 }
    }

    /// Places operand `i` on (die i/2, in-die plane 0), block i, wl 0.
    fn layout(n: usize) -> (PlacementMap, std::collections::HashMap<OperandId, PlaneId>) {
        let mut map = PlacementMap::new();
        let mut planes = std::collections::HashMap::new();
        for i in 0..n {
            map.insert(i, WlAddr::new(0, i as u32, 0), false);
            planes.insert(i, PlaneId { die: DieId::new(0, (i / 2) as u32), plane: 0 });
        }
        (map, planes)
    }

    #[test]
    fn co_planar_expression_stays_one_program() {
        let (map, _) = layout(4);
        let planes: std::collections::HashMap<OperandId, PlaneId> =
            (0..4).map(|i| (i, PlaneId { die: DieId::new(0, 0), plane: 0 })).collect();
        let nnf = Expr::or_vars(0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert!(matches!(plan, ExecPlan::Leaf(_)));
        assert_eq!(plan.sense_count(), 1, "Eq. 1 fusion survives");
        assert_eq!(plan.die_count(), 1);
    }

    #[test]
    fn spanning_and_splits_per_plane_and_merges() {
        // 4 operands over 2 dies: one leaf per die, AND-merged.
        let (map, planes) = layout(4);
        let nnf = Expr::and_vars(0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert_eq!(plan.die_count(), 2);
        let ExecPlan::Merge { op: MergeOp::And, ref parts } = plan else {
            panic!("expected an AND merge, got {plan:?}");
        };
        assert_eq!(parts.len(), 2);
        let mut leaves = Vec::new();
        let tree = plan.flatten(&mut leaves);
        assert_eq!(leaves.len(), 2);
        assert!(matches!(tree, MergeTree::Node(MergeOp::And, _)));
    }

    #[test]
    fn eval_merge_combines_partials() {
        let a = BitVec::from_fn(8, |i| i % 2 == 0);
        let b = BitVec::from_fn(8, |i| i < 4);
        let tree = MergeTree::Node(MergeOp::And, vec![MergeTree::Leaf(0), MergeTree::Leaf(1)]);
        let mut pages = vec![Some(a.clone()), Some(b.clone())];
        assert_eq!(eval_merge(&tree, &mut pages), a.and(&b));
        let tree = MergeTree::Node(MergeOp::Xor, vec![MergeTree::Leaf(0), MergeTree::Leaf(1)]);
        let mut pages = vec![Some(a.clone()), Some(b.clone())];
        assert_eq!(eval_merge(&tree, &mut pages), a.xor(&b));
    }

    #[test]
    fn nested_xor_across_planes_is_rejected() {
        let (map, planes) = layout(4);
        let nnf = Expr::or(vec![
            Expr::xor(Expr::var(0), Expr::var(2)), // spans dies 0 and 1
            Expr::var(3),
        ])
        .to_nnf();
        let err = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap_err();
        assert!(matches!(err, PlanError::Unplannable(_)));
    }

    #[test]
    fn spanning_threshold_expands_and_merges_exactly() {
        // TH2 over operands on two dies: no Boolean merge op carries
        // partial counts, so the splitter must expand the vote first.
        let (map, planes) = layout(4);
        let nnf = Expr::threshold_vars(2, 0..4).to_nnf();
        let plan = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap();
        assert_eq!(plan.die_count(), 2);
        assert!(matches!(plan, ExecPlan::Merge { op: MergeOp::Or, .. }));
    }

    #[test]
    fn missing_placement_is_reported() {
        let (map, mut planes) = layout(3);
        planes.remove(&1);
        let nnf = Expr::and_vars(0..3).to_nnf();
        let err = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap_err();
        assert_eq!(err, PlanError::NoPlacement(1));
    }

    #[test]
    fn spanning_xor_with_compound_side_is_unsupported() {
        let (map, planes) = layout(4);
        let nnf = Expr::xor(Expr::and_vars([0, 1]), Expr::var(2)).to_nnf();
        let err = compile_spanning(&nnf, &|id| planes.get(&id).copied(), &mut |sub| {
            planner::compile(sub, &map, caps())
        })
        .unwrap_err();
        assert_eq!(err, PlanError::UnsupportedXor);
    }

    #[test]
    fn partition_emits_buckets_in_key_order_then_spanning_children() {
        // Homes by parity: 5 and 3 share key 1, 4 sits alone on key 0,
        // and OR(1, 2) spans both keys.
        let nnf = Expr::and(vec![Expr::var(5), Expr::or_vars([1, 2]), Expr::var(3), Expr::var(4)])
            .to_nnf();
        let plan = partition(&nnf, &|id| Ok::<_, PlanError>(id % 2), &mut |key, sub| {
            Ok((key, sub.operands().into_iter().collect::<Vec<_>>()))
        })
        .unwrap();
        let mut leaves = Vec::new();
        plan.flatten(&mut leaves);
        assert_eq!(leaves, vec![(0, vec![4]), (1, vec![3, 5]), (0, vec![2]), (1, vec![1])]);
    }
}
