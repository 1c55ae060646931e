//! Parallel 3-D hull on the CRCW PRAM simulator.

pub mod noisy;
pub mod probe;
pub mod supervised;
pub mod unsorted3d;
