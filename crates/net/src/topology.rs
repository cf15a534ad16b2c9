//! Overlay topology construction.
//!
//! Ethereum's discovery assigns neighbors "based on a random node
//! identifier ... independent of the geographic location" (§III-B1). We
//! reproduce that: each node dials uniformly random peers until it reaches
//! its target degree, subject to a per-node cap; measurement nodes get a
//! larger target (the paper ran its observers with unlimited peers, and a
//! complementary one at the default 25).

use ethmeter_sim::Xoshiro256;
use ethmeter_types::{FxHashSet, NodeId};

/// An undirected overlay graph.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    adjacency: Vec<Vec<NodeId>>,
}

/// Per-node degree targets used by [`Topology::random`].
#[derive(Debug, Clone)]
pub struct DegreePlan {
    /// Target degree per node (dialing stops at the target; accepting
    /// stops at the cap).
    pub targets: Vec<usize>,
    /// Hard cap per node.
    pub caps: Vec<usize>,
}

impl Topology {
    /// Builds a random graph over `plan.targets.len()` nodes: each node
    /// dials random distinct partners until its target degree is met or
    /// the candidate pool is exhausted; both endpoints must be under their
    /// caps. The graph is then patched to be connected.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty or `targets`/`caps` lengths differ.
    pub fn random(plan: &DegreePlan, rng: &mut Xoshiro256) -> Self {
        Self::random_with_constraint(plan, rng, |_, _| true)
    }

    /// Like [`Topology::random`], but only creates edges `(a, b)` for
    /// which `allowed(a, b)` holds. Used to model hidden pool gateways:
    /// "mining pools have been known to place gateways in several
    /// geographical locations ... without disclosing their precise
    /// location" (§III-B2) — so measurement nodes cannot peer with them
    /// directly. The connectivity patch ignores the constraint as a last
    /// resort.
    ///
    /// # Panics
    ///
    /// Panics if the plan is empty or `targets`/`caps` lengths differ.
    pub fn random_with_constraint<F>(plan: &DegreePlan, rng: &mut Xoshiro256, allowed: F) -> Self
    where
        F: Fn(usize, usize) -> bool,
    {
        let n = plan.targets.len();
        assert!(n >= 2, "topology needs at least two nodes");
        assert_eq!(plan.targets.len(), plan.caps.len(), "plan length mismatch");
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut edges: FxHashSet<(u32, u32)> = FxHashSet::default();

        let add_edge = |a: usize,
                        b: usize,
                        adjacency: &mut Vec<Vec<NodeId>>,
                        edges: &mut FxHashSet<(u32, u32)>| {
            let key = (a.min(b) as u32, a.max(b) as u32);
            if a == b || edges.contains(&key) {
                return false;
            }
            edges.insert(key);
            adjacency[a].push(NodeId(b as u32));
            adjacency[b].push(NodeId(a as u32));
            true
        };

        // Dial in random node order so no node systematically fills first.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for &i in &order {
            let mut attempts = 0;
            while adjacency[i].len() < plan.targets[i] && attempts < 40 * n {
                attempts += 1;
                let j = rng.index(n);
                if j == i
                    || adjacency[j].len() >= plan.caps[j]
                    || adjacency[i].len() >= plan.caps[i]
                    || !allowed(i, j)
                {
                    continue;
                }
                add_edge(i, j, &mut adjacency, &mut edges);
            }
        }

        // Connectivity patch: link each secondary component to the
        // component of node 0 (ignoring caps; isolation would break the
        // simulation entirely).
        let mut comp = vec![usize::MAX; n];
        let mut comp_count = 0;
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = comp_count;
            comp_count += 1;
            let mut stack = vec![start];
            comp[start] = c;
            while let Some(v) = stack.pop() {
                for &w in &adjacency[v] {
                    let w = w.index();
                    if comp[w] == usize::MAX {
                        comp[w] = c;
                        stack.push(w);
                    }
                }
            }
        }
        if comp_count > 1 {
            // Attach a representative of each non-zero component to a
            // random member of component 0.
            let comp0: Vec<usize> = (0..n).filter(|&v| comp[v] == comp[0]).collect();
            for c in 0..comp_count {
                if c == comp[0] {
                    continue;
                }
                let rep = (0..n).find(|&v| comp[v] == c).expect("component member");
                let anchor = comp0[rng.index(comp0.len())];
                add_edge(rep, anchor, &mut adjacency, &mut edges);
            }
        }

        Topology { n, adjacency }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the graph has no nodes (never produced by constructors).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbors of a node.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// Total undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// True if every node can reach every other.
    #[cfg(test)]
    pub fn is_connected(&self) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &self.adjacency[v] {
                let w = w.index();
                if !seen[w] {
                    seen[w] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_plan(n: usize, target: usize, cap: usize) -> DegreePlan {
        DegreePlan {
            targets: vec![target; n],
            caps: vec![cap; n],
        }
    }

    #[test]
    fn builds_connected_graph_with_target_degrees() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        let plan = uniform_plan(200, 13, 60);
        let topo = Topology::random(&plan, &mut rng);
        assert_eq!(topo.len(), 200);
        assert!(topo.is_connected());
        // Mean degree ~ 2 * target (each dial creates degree at both ends).
        let mean: f64 = (0..200)
            .map(|i| topo.neighbors(NodeId(i as u32)).len() as f64)
            .sum::<f64>()
            / 200.0;
        assert!(
            (13.0..=40.0).contains(&mean),
            "mean degree {mean} out of band"
        );
        // No node exceeds its cap (patching can exceed by a few; allow +4).
        for i in 0..200 {
            assert!(topo.neighbors(NodeId(i)).len() <= 64);
        }
    }

    #[test]
    fn heterogeneous_targets_respected() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut plan = uniform_plan(100, 8, 30);
        // Node 0 is an observer with a large target.
        plan.targets[0] = 60;
        plan.caps[0] = 99;
        let topo = Topology::random(&plan, &mut rng);
        assert!(
            topo.neighbors(NodeId(0)).len() >= 55,
            "observer degree {}",
            topo.neighbors(NodeId(0)).len()
        );
        assert!(topo.is_connected());
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let topo = Topology::random(&uniform_plan(50, 6, 20), &mut rng);
        for i in 0..50u32 {
            let neigh = topo.neighbors(NodeId(i));
            assert!(!neigh.contains(&NodeId(i)), "self loop at {i}");
            let set: std::collections::HashSet<_> = neigh.iter().collect();
            assert_eq!(set.len(), neigh.len(), "duplicate edge at {i}");
        }
    }

    #[test]
    fn symmetry() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let topo = Topology::random(&uniform_plan(60, 5, 20), &mut rng);
        for i in 0..60u32 {
            for &j in topo.neighbors(NodeId(i)) {
                assert!(
                    topo.neighbors(j).contains(&NodeId(i)),
                    "asymmetric edge {i} -> {j}"
                );
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let plan = uniform_plan(80, 7, 25);
        let a = Topology::random(&plan, &mut Xoshiro256::seed_from_u64(3));
        let b = Topology::random(&plan, &mut Xoshiro256::seed_from_u64(3));
        for i in 0..80u32 {
            assert_eq!(a.neighbors(NodeId(i)), b.neighbors(NodeId(i)));
        }
    }

    #[test]
    fn tiny_graph_connects() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let topo = Topology::random(&uniform_plan(2, 1, 5), &mut rng);
        assert!(topo.is_connected());
        assert_eq!(topo.edge_count(), 1);
    }

    #[test]
    fn constraint_forbids_edges() {
        let mut rng = Xoshiro256::seed_from_u64(13);
        // Nodes 0..5 may not connect to nodes 45..50 (hidden gateways).
        let hidden = |v: usize| (45..50).contains(&v);
        let observer = |v: usize| v < 5;
        let topo = Topology::random_with_constraint(&uniform_plan(50, 8, 25), &mut rng, |a, b| {
            !((observer(a) && hidden(b)) || (observer(b) && hidden(a)))
        });
        assert!(topo.is_connected());
        for o in 0..5u32 {
            for &n in topo.neighbors(NodeId(o)) {
                assert!(!hidden(n.index()), "observer {o} connected to hidden {n}");
            }
        }
    }
}
