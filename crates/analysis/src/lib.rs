//! Structural analyses of §11: bisection estimation (Figures 12–13),
//! fault tolerance under random link failures (Figure 14), and channel
//! load under uniform minimal routing (edge betweenness).

pub mod bisection;
pub mod faults;
pub mod linkload;
pub mod pathdiversity;

pub use bisection::normalized_bisection_fraction;
pub use faults::{fault_trajectory, median_trajectory, FaultStep};
pub use linkload::{channel_load, ChannelLoad};
pub use pathdiversity::{path_diversity, PathDiversity};
