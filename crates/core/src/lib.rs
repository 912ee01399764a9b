//! # ppa-core — PPA replication planning
//!
//! This crate implements the *planning* half of the paper **“Tolerating
//! Correlated Failures in Massively Parallel Stream Processing Engines”**
//! (Su & Zhou, ICDE 2016): the query/topology model (§II), the *Output
//! Fidelity* metric and its operator output-loss model (§III), minimal
//! complete trees (Definition 1), and the three replication planners of §IV —
//! the exact dynamic program (Algorithm 1), the task-level greedy
//! (Algorithm 2) and the structure-aware planner (Algorithms 3–5).
//!
//! The companion crate `ppa-engine` executes topologies produced here on a
//! simulated cluster with PPA fault tolerance.
//!
//! ## Quick tour
//!
//! ```
//! use ppa_core::model::{OperatorSpec, Partitioning, TopologyBuilder};
//! use ppa_core::planner::{PlanContext, Planner, StructureAwarePlanner};
//!
//! // A 3-operator aggregation pipeline: 4 sources -> 2 aggregators -> 1 sink.
//! let mut b = TopologyBuilder::new();
//! let src = b.add_operator(OperatorSpec::source("src", 4, 1_000.0));
//! let agg = b.add_operator(OperatorSpec::map("agg", 2, 0.5));
//! let sink = b.add_operator(OperatorSpec::map("sink", 1, 0.1));
//! b.connect(src, agg, Partitioning::Merge).unwrap();
//! b.connect(agg, sink, Partitioning::Merge).unwrap();
//! let topology = b.build().unwrap();
//!
//! let cx = PlanContext::new(&topology).unwrap();
//! // Budget: actively replicate 4 of the 7 tasks.
//! let plan = StructureAwarePlanner::default().plan(&cx, 4).unwrap();
//! assert!(plan.tasks.len() <= 4);
//! // Output fidelity of the tentative output under a worst-case correlated
//! // failure (every non-replicated task down):
//! let of = cx.of_plan(&plan.tasks);
//! assert!((0.0..=1.0).contains(&of));
//! ```

pub mod error;
pub mod fidelity;
pub mod mctree;
pub mod model;
pub mod planner;
pub mod random;
pub mod rates;

pub use error::{CoreError, Result};
pub use fidelity::FidelityModel;
pub use mctree::{enumerate_mc_trees, enumerate_mc_trees_with, McTreeLimits};
pub use model::{
    InputSemantics, OperatorId, OperatorSpec, Partitioning, TaskIndex, TaskSet, TaskWeights,
    Topology, TopologyBuilder,
};
pub use planner::{
    adapt_plan, AdaptivePlanner, BruteForcePlanner, DpPlanner, GreedyPlanner, Plan, PlanAdaptation,
    PlanContext, Planner, StructureAwarePlanner,
};
pub use random::{RandomTopologySpec, Skew, TopologyStyle};
pub use rates::RateModel;
