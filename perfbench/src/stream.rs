//! The learners' input stream: same-class runs of exactly STC frames
//! that visit every class once per cycle, in an order the seed shuffles.
//!
//! `deco_datasets::Stream` jitters run lengths by ±50 % and draws classes
//! independently, so which classes a short run sees, and how many segments
//! straddle two classes, change from seed to seed; per-segment cost and
//! accuracy moved by over 10 % between seeds. Fixing the run length and
//! balancing the classes keeps each seed's workload the same shape while
//! the seed still picks the class order, instances, environments,
//! viewpoints and pixel noise, all rendered by the dataset itself.

use deco_datasets::{Segment, SyntheticVision};
use deco_tensor::{Rng, Tensor};

/// A class-balanced, fixed-run-length stream over `data`.
pub struct BalancedStream<'a> {
    data: &'a SyntheticVision,
    rng: Rng,
    segment_size: usize,
    run_len: usize,
    /// Classes still to visit in this cycle, next last.
    cycle: Vec<usize>,
    class: usize,
    instance: usize,
    environment: usize,
    view: f32,
    remaining: usize,
}

impl<'a> BalancedStream<'a> {
    /// A stream of `segment_size`-frame segments with runs of `run_len`.
    pub fn new(data: &'a SyntheticVision, segment_size: usize, run_len: usize, seed: u64) -> Self {
        BalancedStream {
            data,
            rng: Rng::new(data.spec().seed ^ seed.wrapping_mul(0x5DEE_CE66D)),
            segment_size,
            run_len,
            cycle: Vec::new(),
            class: usize::MAX,
            instance: 0,
            environment: 0,
            view: 0.0,
            remaining: 0,
        }
    }

    fn next_run(&mut self) {
        let spec = self.data.spec();
        if self.cycle.is_empty() {
            self.cycle = (0..spec.num_classes).collect();
            for i in (1..self.cycle.len()).rev() {
                let j = self.rng.below(i + 1);
                self.cycle.swap(i, j);
            }
            // No class runs twice in a row across a cycle boundary.
            let last = self.cycle.len() - 1;
            if self.cycle[last] == self.class && last > 0 {
                self.cycle.swap(0, last);
            }
        }
        self.class = self.cycle.pop().expect("cycle refilled above");
        self.instance = self.rng.below(spec.instances_per_class);
        self.environment = self.rng.below(spec.num_environments);
        self.view = self.rng.next_f32();
        self.remaining = self.run_len;
    }

    /// The next segment.
    pub fn next_segment(&mut self) -> Segment {
        let spec = self.data.spec();
        let mut pixels = Vec::with_capacity(self.segment_size * self.data.frame_numel());
        let mut labels = Vec::with_capacity(self.segment_size);
        for _ in 0..self.segment_size {
            if self.remaining == 0 {
                self.next_run();
            }
            let frame = self.data.render(
                self.class,
                self.instance,
                self.environment,
                self.view,
                &mut self.rng,
            );
            self.view = (self.view + 1.0 / self.run_len as f32).fract();
            self.remaining -= 1;
            pixels.extend_from_slice(frame.data());
            labels.push(self.class);
        }
        Segment {
            images: Tensor::from_vec(
                pixels,
                [
                    self.segment_size,
                    spec.channels,
                    spec.image_side,
                    spec.image_side,
                ],
            ),
            true_labels: labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_datasets::core50;

    #[test]
    fn runs_are_fixed_length_and_cycles_cover_every_class() {
        let data = SyntheticVision::new(core50());
        let classes = data.num_classes();
        let mut stream = BalancedStream::new(&data, 32, 40, 5);
        let labels: Vec<usize> = (0..25)
            .flat_map(|_| stream.next_segment().true_labels)
            .collect();
        let runs: Vec<&[usize]> = labels.chunks(40).collect();
        for run in &runs {
            assert!(run.iter().all(|&c| c == run[0]));
        }
        for pair in runs.windows(2) {
            assert_ne!(pair[0][0], pair[1][0], "a class repeated across runs");
        }
        for cycle in runs.chunks(classes).filter(|c| c.len() == classes) {
            let mut seen: Vec<usize> = cycle.iter().map(|r| r[0]).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..classes).collect::<Vec<_>>());
        }
        let again: Vec<usize> = {
            let mut s = BalancedStream::new(&data, 32, 40, 5);
            (0..25).flat_map(|_| s.next_segment().true_labels).collect()
        };
        assert_eq!(labels, again, "same seed, same stream");
    }
}
