//! Gold collaborative filtering: matrix factorisation by SGD.
//!
//! The paper runs CF on Netflix with feature length 32 (§5.1), using
//! GraphChi's factorisation on the CPU and CuMF_SGD on the GPU. The gold
//! model is plain SGD over the rating edges: each observed rating `r(u, i)`
//! pulls the user and item latent vectors `p_u`, `q_i` together so that
//! `p_u · q_i ≈ r`. Per-epoch RMSE must decrease — that is the correctness
//! signal the simulators are held to.

use crate::coo::EdgeList;

/// Hyper-parameters for SGD matrix factorisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfParams {
    /// Latent feature length (paper: 32).
    pub features: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularisation strength.
    pub regularization: f64,
    /// Number of passes over the rating edges.
    pub epochs: usize,
    /// Deterministic initialisation seed.
    pub seed: u64,
}

impl Default for CfParams {
    fn default() -> Self {
        CfParams {
            features: 32,
            learning_rate: 0.01,
            regularization: 0.02,
            epochs: 10,
            seed: 1,
        }
    }
}

/// Trained factors and the per-epoch RMSE trace.
#[derive(Debug, Clone, PartialEq)]
pub struct CfResult {
    /// User latent vectors, `users × features`, row-major.
    pub user_factors: Vec<f64>,
    /// Item latent vectors, `items × features`, row-major.
    pub item_factors: Vec<f64>,
    /// Training RMSE after each epoch.
    pub rmse_history: Vec<f64>,
}

impl CfResult {
    /// Predicted rating for `(user, item)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn predict(&self, user: usize, item: usize, features: usize) -> f64 {
        let p = &self.user_factors[user * features..(user + 1) * features];
        let q = &self.item_factors[item * features..(item + 1) * features];
        p.iter().zip(q).map(|(a, b)| a * b).sum()
    }
}

/// Trains matrix factorisation on a bipartite rating graph whose vertices
/// `0..users` are users and `users..users+items` are items, with edge
/// weights holding ratings (see [`crate::generators::bipartite`]).
///
/// # Examples
///
/// ```
/// use graphr_graph::generators::bipartite::RatingMatrix;
/// use graphr_graph::algorithms::cf::{train_cf, CfParams};
///
/// let m = RatingMatrix::new(50, 20, 600).seed(7).generate();
/// let params = CfParams { epochs: 5, ..CfParams::default() };
/// let r = train_cf(m.graph(), m.users(), m.items(), &params);
/// assert!(r.rmse_history.last().unwrap() < r.rmse_history.first().unwrap());
/// ```
///
/// # Panics
///
/// Panics if the graph's vertex count differs from `users + items`, if any
/// edge does not run user → item, or if `features` is zero.
#[must_use]
pub fn train_cf(ratings: &EdgeList, users: usize, items: usize, params: &CfParams) -> CfResult {
    assert_eq!(
        ratings.num_vertices(),
        users + items,
        "vertex count must equal users + items"
    );
    assert!(params.features > 0, "feature length must be positive");
    let f = params.features;
    // Deterministic pseudo-random init via splitmix64 so results are stable
    // across platforms without an RNG dependency in the hot path.
    let mut state = params.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next_init = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Scale to a small positive band so initial predictions sit near the
        // rating mean region.
        0.1 + (z >> 11) as f64 / (1u64 << 53) as f64 * 0.4
    };
    let mut user_factors: Vec<f64> = (0..users * f).map(|_| next_init()).collect();
    let mut item_factors: Vec<f64> = (0..items * f).map(|_| next_init()).collect();

    let mut rmse_history = Vec::with_capacity(params.epochs);
    for _epoch in 0..params.epochs {
        let mut sq_err = 0.0;
        for e in ratings.iter() {
            let u = e.src as usize;
            let i = e.dst as usize;
            assert!(
                u < users && (users..users + items).contains(&i),
                "edge ({u}, {i}) does not run user -> item"
            );
            let i = i - users;
            let rating = f64::from(e.weight);
            let (pu, qi) = (
                &user_factors[u * f..(u + 1) * f],
                &item_factors[i * f..(i + 1) * f],
            );
            let pred: f64 = pu.iter().zip(qi).map(|(a, b)| a * b).sum();
            let err = rating - pred;
            sq_err += err * err;
            for k in 0..f {
                let p = user_factors[u * f + k];
                let q = item_factors[i * f + k];
                user_factors[u * f + k] +=
                    params.learning_rate * (err * q - params.regularization * p);
                item_factors[i * f + k] +=
                    params.learning_rate * (err * p - params.regularization * q);
            }
        }
        let denom = ratings.num_edges().max(1) as f64;
        rmse_history.push((sq_err / denom).sqrt());
    }
    CfResult {
        user_factors,
        item_factors,
        rmse_history,
    }
}

/// Root-mean-square error of predictions against the observed ratings.
///
/// # Panics
///
/// Panics on dimension mismatches (see [`train_cf`]).
#[must_use]
pub fn rmse(result: &CfResult, ratings: &EdgeList, users: usize, features: usize) -> f64 {
    let mut sq = 0.0;
    for e in ratings.iter() {
        let pred = result.predict(e.src as usize, e.dst as usize - users, features);
        let err = f64::from(e.weight) - pred;
        sq += err * err;
    }
    (sq / ratings.num_edges().max(1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::bipartite::RatingMatrix;

    fn small_params() -> CfParams {
        CfParams {
            features: 8,
            epochs: 15,
            ..CfParams::default()
        }
    }

    #[test]
    fn rmse_decreases_over_epochs() {
        let m = RatingMatrix::new(60, 25, 1500).seed(3).generate();
        let r = train_cf(m.graph(), m.users(), m.items(), &small_params());
        assert_eq!(r.rmse_history.len(), 15);
        let first = r.rmse_history[0];
        let last = *r.rmse_history.last().unwrap();
        assert!(
            last < first * 0.8,
            "rmse should drop markedly: first={first} last={last}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let m = RatingMatrix::new(20, 10, 200).seed(5).generate();
        let a = train_cf(m.graph(), 20, 10, &small_params());
        let b = train_cf(m.graph(), 20, 10, &small_params());
        assert_eq!(a, b);
    }

    #[test]
    fn final_rmse_matches_recomputed_rmse_direction() {
        let m = RatingMatrix::new(30, 10, 500).seed(9).generate();
        let params = small_params();
        let r = train_cf(m.graph(), 30, 10, &params);
        // The post-hoc RMSE (after the last update) should be no worse than
        // the during-epoch RMSE of the final epoch by a wide margin.
        let post = rmse(&r, m.graph(), 30, params.features);
        let last = *r.rmse_history.last().unwrap();
        assert!(post <= last * 1.1, "post={post} last={last}");
    }

    #[test]
    fn predictions_land_in_plausible_band() {
        let m = RatingMatrix::new(40, 15, 1200).seed(2).generate();
        let params = small_params();
        let r = train_cf(m.graph(), 40, 15, &params);
        for e in m.graph().iter().take(50) {
            let p = r.predict(e.src as usize, e.dst as usize - 40, params.features);
            assert!((-1.0..=8.0).contains(&p), "wild prediction {p}");
        }
    }

    #[test]
    #[should_panic(expected = "users + items")]
    fn rejects_wrong_vertex_count() {
        let m = RatingMatrix::new(10, 5, 50).generate();
        let _ = train_cf(m.graph(), 10, 6, &small_params());
    }
}
