//! A deterministic discrete-event CSMA/CD Ethernet simulator.
//!
//! Eden's node machines are interconnected by "the Ethernet jointly
//! specified by Digital, Intel and Xerox" (§3), and the project had
//! "already satisfied ourselves of the suitability of Experimental
//! Ethernet for our requirements" via the measurement study the paper
//! cites, Almes & Lazowska, *The Behavior of Ethernet-Like Computer
//! Communications Networks* (SOSP '79). The real coaxial bus is
//! unavailable here, so this crate rebuilds it as a simulator and
//! regenerates that study's characteristic curves: throughput, access
//! delay and collision rate as functions of offered load, station count
//! and frame size (experiment E7 in EXPERIMENTS.md).
//!
//! The model is 1-persistent CSMA/CD with:
//!
//! * carrier sense delayed by the propagation time `tau` — two stations
//!   starting within `tau` of each other collide;
//! * collision detection, jam, and truncated binary exponential backoff
//!   (the DIX Ethernet parameters are the defaults);
//! * per-station FIFO queues fed by Poisson arrival processes;
//! * full determinism: one seed produces one event sequence.
//!
//! [`analytic`] carries the Metcalfe & Boggs closed-form efficiency model
//! the simulator is validated against in the test suite, and [`aloha`]
//! implements the slotted-ALOHA baseline MAC the Ethernet papers measure
//! against (saturating at 1/e versus CSMA/CD's >0.9 for long frames).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod aloha;
pub mod analytic;
pub mod config;
pub mod events;
pub mod metrics;
pub mod sim;
pub mod time;
pub mod workload;

pub use aloha::{AlohaConfig, AlohaSim};
pub use config::EthernetConfig;
pub use metrics::Report;
pub use sim::EthernetSim;
pub use time::SimTime;
pub use workload::{FrameSizes, Workload};
