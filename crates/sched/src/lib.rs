//! # sor-sched
//!
//! Discrete-time store-and-forward packet scheduling — the model in which
//! "completion time ≈ congestion + dilation" is grounded (\[LMR94\]: any set
//! of packet routes with congestion `C` and dilation `D` can be scheduled
//! in `O(C + D)` steps; simple randomized schedulers get close in
//! practice).
//!
//! Experiment E6 routes demands with congestion-only versus
//! hop-constrained semi-oblivious routings, then *simulates* both here to
//! show that the `C + D` objective, not congestion alone, predicts actual
//! delivery time.
//!
//! # Example
//!
//! ```
//! use sor_graph::{bfs_path, gen, NodeId};
//! use sor_sched::{simulate, Policy};
//!
//! // three packets pipeline over a shared 4-hop path: makespan 4 + 2
//! let g = gen::path_graph(5);
//! let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
//! let r = simulate(&g, &[p.clone(), p.clone(), p], Policy::Fifo);
//! assert_eq!(r.makespan, 6);
//! assert_eq!(r.lower_bound(), 4);
//! ```

pub mod sim;

pub use sim::{
    simulate, simulate_released, try_simulate, try_simulate_released, Policy, SimResult,
};
