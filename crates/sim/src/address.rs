//! The link-local address pool.

use std::collections::BTreeSet;

use zeroconf_rng::Rng;

use crate::SimError;

/// The pool of candidate addresses with occupancy tracking.
///
/// Addresses are abstract indices `0 .. size`; mapping them onto the
/// concrete 169.254.x.y range would add nothing to the model. The
/// occupied set is ordered, so every draw from it depends only on the
/// generator's state, never on the process.
///
/// # Examples
///
/// ```
/// use zeroconf_rng::SeedableRng;
/// use zeroconf_sim::address::AddressPool;
///
/// # fn main() -> Result<(), zeroconf_sim::SimError> {
/// let mut rng = zeroconf_rng::rngs::StdRng::seed_from_u64(3);
/// let pool = AddressPool::with_random_occupancy(100, 30, &mut rng)?;
/// assert_eq!(pool.occupied_count(), 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressPool {
    size: u32,
    occupied: BTreeSet<u32>,
}

impl AddressPool {
    /// Creates an empty pool of `size` addresses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when `size == 0`.
    pub fn new(size: u32) -> Result<Self, SimError> {
        if size == 0 {
            return Err(SimError::InvalidConfig {
                parameter: "address pool size",
                value: 0.0,
            });
        }
        Ok(AddressPool {
            size,
            occupied: BTreeSet::new(),
        })
    }

    /// Creates a pool with `occupied` distinct random addresses in use —
    /// the paper's "m hosts already connected".
    ///
    /// # Errors
    ///
    /// - [`SimError::InvalidConfig`] when `size == 0`.
    /// - [`SimError::AddressSpaceExhausted`] when `occupied > size`.
    pub fn with_random_occupancy<R: Rng>(
        size: u32,
        occupied: u32,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        let mut pool = AddressPool::new(size)?;
        if occupied > size {
            return Err(SimError::AddressSpaceExhausted {
                requested: occupied,
                capacity: size,
            });
        }
        while pool.occupied.len() < occupied as usize {
            pool.occupied.insert(rng.gen_range(0..size));
        }
        Ok(pool)
    }

    /// Pool capacity.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of occupied addresses.
    pub fn occupied_count(&self) -> u32 {
        self.occupied.len() as u32
    }

    /// Fraction of the pool in use — the model's `q`.
    pub fn occupancy(&self) -> f64 {
        self.occupied.len() as f64 / self.size as f64
    }

    /// True when `address` is in use.
    pub fn is_occupied(&self, address: u32) -> bool {
        self.occupied.contains(&address)
    }

    /// Marks an address as in use; returns whether it was free before.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an address outside the pool.
    pub fn occupy(&mut self, address: u32) -> Result<bool, SimError> {
        self.check(address)?;
        Ok(self.occupied.insert(address))
    }

    /// Releases an address; returns whether it was in use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an address outside the pool.
    pub fn release(&mut self, address: u32) -> Result<bool, SimError> {
        self.check(address)?;
        Ok(self.occupied.remove(&address))
    }

    /// Draws a uniformly random candidate address (occupied or not), as
    /// the protocol does.
    pub fn random_candidate<R: Rng>(&self, rng: &mut R) -> u32 {
        rng.gen_range(0..self.size)
    }

    /// Draws a uniformly random *occupied* address, `None` when the pool
    /// is empty of occupants. Used by churn models (a departing host frees
    /// its address).
    pub fn random_occupied<R: Rng>(&self, rng: &mut R) -> Option<u32> {
        if self.occupied.is_empty() {
            return None;
        }
        let index = rng.gen_range(0..self.occupied.len());
        self.occupied.iter().nth(index).copied()
    }

    /// Draws a uniformly random *free* address by rejection sampling,
    /// `None` when the pool is saturated. Used by churn models (an
    /// arriving host claims a free address).
    pub fn random_free<R: Rng>(&self, rng: &mut R) -> Option<u32> {
        if self.occupied.len() as u32 >= self.size {
            return None;
        }
        loop {
            let candidate = rng.gen_range(0..self.size);
            if !self.occupied.contains(&candidate) {
                return Some(candidate);
            }
        }
    }

    fn check(&self, address: u32) -> Result<(), SimError> {
        if address >= self.size {
            Err(SimError::InvalidConfig {
                parameter: "address",
                value: address as f64,
            })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use zeroconf_rng::rngs::StdRng;
    use zeroconf_rng::SeedableRng;

    use super::*;

    #[test]
    fn empty_pool_size_is_rejected() {
        assert!(AddressPool::new(0).is_err());
    }

    #[test]
    fn random_occupancy_is_exact_and_distinct() {
        let mut rng = StdRng::seed_from_u64(1);
        let pool = AddressPool::with_random_occupancy(1000, 250, &mut rng).unwrap();
        assert_eq!(pool.occupied_count(), 250);
        assert!((pool.occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn over_occupancy_is_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            AddressPool::with_random_occupancy(10, 11, &mut rng),
            Err(SimError::AddressSpaceExhausted { .. })
        ));
    }

    #[test]
    fn full_occupancy_terminates() {
        let mut rng = StdRng::seed_from_u64(2);
        let pool = AddressPool::with_random_occupancy(16, 16, &mut rng).unwrap();
        assert_eq!(pool.occupied_count(), 16);
        for a in 0..16 {
            assert!(pool.is_occupied(a));
        }
    }

    #[test]
    fn occupy_and_release_round_trip() {
        let mut pool = AddressPool::new(8).unwrap();
        assert!(pool.occupy(3).unwrap());
        assert!(!pool.occupy(3).unwrap());
        assert!(pool.is_occupied(3));
        assert!(pool.release(3).unwrap());
        assert!(!pool.release(3).unwrap());
        assert!(!pool.is_occupied(3));
    }

    #[test]
    fn out_of_range_addresses_are_rejected() {
        let mut pool = AddressPool::new(8).unwrap();
        assert!(pool.occupy(8).is_err());
        assert!(pool.release(100).is_err());
    }

    #[test]
    fn random_candidates_cover_the_pool() {
        let pool = AddressPool::new(4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = BTreeSet::new();
        for _ in 0..200 {
            seen.insert(pool.random_candidate(&mut rng));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn random_occupied_and_free_respect_the_partition() {
        let mut rng = StdRng::seed_from_u64(5);
        let pool = AddressPool::with_random_occupancy(64, 16, &mut rng).unwrap();
        for _ in 0..200 {
            let occupied = pool.random_occupied(&mut rng).unwrap();
            assert!(pool.is_occupied(occupied));
            let free = pool.random_free(&mut rng).unwrap();
            assert!(!pool.is_occupied(free));
        }
    }

    #[test]
    fn occupied_draws_depend_only_on_the_seed() {
        // Two pools built independently from one seed, and two generators
        // seeded alike, must draw the same occupied addresses in the same
        // order: the draw indexes the occupied set, so its iteration order
        // may not depend on anything but its contents.
        let build = || {
            let mut rng = StdRng::seed_from_u64(777);
            AddressPool::with_random_occupancy(65_024, 1_000, &mut rng).unwrap()
        };
        let (left, right) = (build(), build());
        let mut left_rng = StdRng::seed_from_u64(11);
        let mut right_rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(
                left.random_occupied(&mut left_rng),
                right.random_occupied(&mut right_rng)
            );
        }
    }

    #[test]
    fn degenerate_pools_return_none() {
        let mut rng = StdRng::seed_from_u64(6);
        let empty = AddressPool::new(8).unwrap();
        assert_eq!(empty.random_occupied(&mut rng), None);
        let full = AddressPool::with_random_occupancy(8, 8, &mut rng).unwrap();
        assert_eq!(full.random_free(&mut rng), None);
    }

    #[test]
    fn candidate_hit_rate_matches_occupancy() {
        let mut rng = StdRng::seed_from_u64(4);
        let pool = AddressPool::with_random_occupancy(500, 100, &mut rng).unwrap();
        let trials = 50_000;
        let hits = (0..trials)
            .filter(|_| pool.is_occupied(pool.random_candidate(&mut rng)))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.2).abs() < 0.01, "hit rate {rate}");
    }
}
