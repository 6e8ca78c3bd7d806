//! Linial's color reduction — the classic one-round palette shrink the
//! paper cites for the `O(Δ²) → Δ+1` stage of Contribution 5.
//!
//! One [`linial_step`] maps a proper `c`-coloring to a proper coloring
//! with roughly `(dΔ)²` colors where `d = ⌈log c / log q⌉`, via the
//! polynomial cover-free construction: color `i` becomes a degree-`d`
//! polynomial `p_i` over `F_q`; a node with color `i` picks an evaluation
//! point `x` where `p_i` disagrees with all of its neighbors' polynomials
//! (two distinct degree-`d` polynomials agree on at most `d` points, and
//! `q > dΔ` guarantees a free point) and outputs `(x, p_i(x))`. Iterating
//! [`linial_to_delta_squared`] reaches `O(Δ²)` colors in `O(log* c)`
//! rounds.
//!
//! Everything runs as an honest 1-round LOCAL algorithm (each node reads
//! only its neighbors' current colors).

use lad_graph::coloring;
use lad_runtime::{run_local, Network, RoundStats};

/// The smallest prime `≥ x` (trial division; fine for palette-sized
/// inputs).
pub fn next_prime(x: u64) -> u64 {
    let mut n = x.max(2);
    loop {
        if is_prime(n) {
            return n;
        }
        n += 1;
    }
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// The digits of `i` in base `q`, least significant first, padded to
/// `d + 1` coefficients — the polynomial representing color `i`.
fn poly_of(i: u64, q: u64, d: usize) -> Vec<u64> {
    let mut coeffs = Vec::with_capacity(d + 1);
    let mut rest = i;
    for _ in 0..=d {
        coeffs.push(rest % q);
        rest /= q;
    }
    debug_assert_eq!(rest, 0, "color does not fit in q^(d+1)");
    coeffs
}

/// Evaluates a polynomial at `x` over `F_q` (Horner).
fn eval(coeffs: &[u64], x: u64, q: u64) -> u64 {
    let mut acc = 0u64;
    for &c in coeffs.iter().rev() {
        acc = (acc * x + c) % q;
    }
    acc
}

/// Parameters of one Linial step for `c` colors and maximum degree `delta`:
/// `(q, d)` with `q` prime, `q > d·delta`, and `q^(d+1) ≥ c`.
pub fn linial_parameters(c: usize, delta: usize) -> (u64, usize) {
    // Choose the degree first: d ≈ log c / log q is self-referential, so
    // search the smallest d whose induced q gives q^(d+1) ≥ c.
    for d in 1..64 {
        let q = next_prime((d as u64 * delta as u64).max(2) + 1);
        // q^(d+1) ≥ c? (checked arithmetic to avoid overflow)
        let mut cap: u128 = 1;
        for _ in 0..=d {
            cap = cap.saturating_mul(q as u128);
        }
        if cap >= c as u128 {
            return (q, d);
        }
    }
    unreachable!("c fits in q^64 for any q ≥ 2");
}

/// One Linial step: proper `c`-coloring in, proper `q²`-coloring out
/// (colors are `x·q + p(x) < q²`), in exactly one round.
///
/// # Panics
///
/// Panics if `colors` is not a proper coloring with values `< c`.
pub fn linial_step(net: &Network, colors: &[usize], c: usize) -> (Vec<usize>, usize, RoundStats) {
    let g = net.graph();
    assert!(
        coloring::is_proper_k_coloring(g, colors, c),
        "input coloring invalid"
    );
    let delta = g.max_degree().max(1);
    let (q, d) = linial_parameters(c, delta);
    let (out, stats) = run_local(net, |ctx| {
        let ball = ctx.ball(1);
        let me = ball.center();
        let my_poly = poly_of(colors[ball.global_node(me).index()] as u64, q, d);
        let nbr_polys: Vec<Vec<u64>> = ball
            .graph()
            .neighbors(me)
            .iter()
            .map(|&u| poly_of(colors[ball.global_node(u).index()] as u64, q, d))
            .collect();
        // A point where my polynomial differs from every neighbor's: at
        // most d·Δ < q points are blocked.
        let x = (0..q)
            .find(|&x| {
                nbr_polys
                    .iter()
                    .all(|p| eval(p, x, q) != eval(&my_poly, x, q))
            })
            .expect("q > dΔ guarantees a free evaluation point");
        (x * q + eval(&my_poly, x, q)) as usize
    });
    let new_c = (q * q) as usize;
    debug_assert!(coloring::is_proper_k_coloring(g, &out, new_c));
    (out, new_c, stats)
}

/// Iterates Linial steps until the palette stops shrinking — `O(Δ²)`
/// colors after `O(log* c)` rounds. Returns `(colors, palette size,
/// rounds)`.
pub fn linial_to_delta_squared(
    net: &Network,
    colors: Vec<usize>,
    c: usize,
) -> (Vec<usize>, usize, RoundStats) {
    let mut colors = colors;
    let mut c = c;
    let mut total: Option<RoundStats> = None;
    loop {
        let (next, next_c, stats) = linial_step(net, &colors, c);
        total = Some(match total {
            None => stats,
            Some(t) => t.sequential(&stats),
        });
        if next_c >= c {
            // No further progress; keep the smaller palette.
            return (colors, c, total.expect("at least one step ran"));
        }
        colors = next;
        c = next_c;
    }
}

/// Sequential palette reduction `c → Δ+1`: `c − Δ − 1` rounds, each
/// eliminating the top color class (its members are local maxima of the
/// schedule, so they can greedily recolor simultaneously).
pub fn reduce_to_delta_plus_one(
    net: &Network,
    colors: Vec<usize>,
    c: usize,
) -> (Vec<usize>, RoundStats) {
    let g = net.graph();
    let delta = g.max_degree();
    let mut colors = colors;
    let mut total: Option<RoundStats> = None;
    for top in ((delta + 1)..c).rev() {
        let snapshot = colors.clone();
        let (next, stats) = run_local(net, |ctx| {
            let ball = ctx.ball(1);
            let me = ball.center();
            let mine = snapshot[ball.global_node(me).index()];
            if mine != top {
                return mine;
            }
            // The top class is independent (proper coloring): all its
            // members recolor greedily at once.
            let used: Vec<usize> = ball
                .graph()
                .neighbors(me)
                .iter()
                .map(|&u| snapshot[ball.global_node(u).index()])
                .collect();
            (0..=delta).find(|x| !used.contains(x)).expect("Δ+1 colors")
        });
        colors = next;
        total = Some(match total {
            None => stats,
            Some(t) => t.sequential(&stats),
        });
    }
    let stats = total.unwrap_or_else(|| RoundStats::zero(g.n()));
    debug_assert!(coloring::is_proper_k_coloring(g, &colors, delta + 1));
    (colors, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_graph::{generators, IdAssignment};

    #[test]
    fn primes() {
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(13), 13);
        assert_eq!(next_prime(90), 97);
    }

    #[test]
    fn parameters_satisfy_invariants() {
        for (c, delta) in [(1000usize, 4usize), (50, 2), (1 << 20, 8), (10, 10)] {
            let (q, d) = linial_parameters(c, delta);
            assert!(q > (d * delta) as u64, "q > dΔ for ({c}, {delta})");
            let mut cap: u128 = 1;
            for _ in 0..=d {
                cap *= q as u128;
            }
            assert!(cap >= c as u128);
        }
    }

    #[test]
    fn one_step_shrinks_a_big_palette() {
        let g = generators::random_bounded_degree(1000, 5, 2300, 3);
        let n = g.n();
        let net = Network::with_ids(g, IdAssignment::random_permutation(n, 5));
        // Start from the trivial n-coloring by identifier.
        let colors: Vec<usize> = net.uids().iter().map(|&u| (u - 1) as usize).collect();
        let (next, new_c, stats) = linial_step(&net, &colors, n);
        assert!(coloring::is_proper_k_coloring(net.graph(), &next, new_c));
        assert!(new_c < n, "palette must shrink: {new_c} < {n}");
        assert_eq!(stats.rounds(), 1);
    }

    #[test]
    fn iterated_reduction_reaches_delta_squared_scale() {
        let g = generators::random_bounded_degree(300, 4, 580, 7);
        let n = g.n();
        let delta = g.max_degree();
        let net = Network::with_ids(g, IdAssignment::random_permutation(n, 9));
        let colors: Vec<usize> = net.uids().iter().map(|&u| (u - 1) as usize).collect();
        let (colors, c, stats) = linial_to_delta_squared(&net, colors, n);
        assert!(coloring::is_proper_k_coloring(net.graph(), &colors, c));
        // O(Δ²)-ish: q² with q = O(Δ log Δ)-ish at the fixpoint.
        assert!(
            c <= 40 * delta * delta,
            "palette {c} too large for Δ={delta}"
        );
        // log* rounds: tiny.
        assert!(stats.rounds() <= 6, "rounds {}", stats.rounds());
    }

    #[test]
    fn full_pipeline_to_delta_plus_one() {
        let g = generators::random_bounded_degree(150, 5, 330, 11);
        let n = g.n();
        let delta = g.max_degree();
        let net = Network::with_ids(g, IdAssignment::random_permutation(n, 13));
        let colors: Vec<usize> = net.uids().iter().map(|&u| (u - 1) as usize).collect();
        let (colors, c, s1) = linial_to_delta_squared(&net, colors, n);
        let (colors, s2) = reduce_to_delta_plus_one(&net, colors, c);
        assert!(coloring::is_proper_k_coloring(
            net.graph(),
            &colors,
            delta + 1
        ));
        // The whole no-advice pipeline is f(Δ) + log* n rounds.
        let total = s1.sequential(&s2).rounds();
        assert!(total < c + 10);
    }

    #[test]
    fn cycle_reduction() {
        let net = Network::with_identity_ids(generators::cycle(64));
        let colors: Vec<usize> = (0..64).collect();
        let (colors, c, _) = linial_to_delta_squared(&net, colors, 64);
        assert!(coloring::is_proper_k_coloring(net.graph(), &colors, c));
        assert!(c <= 49); // q = 7 fixpoint for Δ = 2
    }
}
