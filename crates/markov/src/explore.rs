//! Breadth-first state-space exploration.
//!
//! Availability models are most naturally written as *rules*: "from any
//! state, each failure class `i` fires at rate `k_i λ_i` and leads to this
//! successor". This module turns such a rule (a successor function) into an
//! explicit [`Ctmc`](crate::Ctmc) by breadth-first exploration from an
//! initial state, assigning dense indices as states are discovered.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::Hash;

use crate::{BudgetResource, Ctmc, CtmcBuilder, MarkovError, SolveBudget};

/// How many dequeued states pass between cooperative budget checkpoints.
const EXPLORE_CHECK_INTERVAL: usize = 256;

/// Reusable buffers for [`explore`] and [`Explored::repatch`]: the
/// successor buffer the transition rule fills, and the per-entry rate
/// accumulator of a repatch.
///
/// One scratch serves chains of every size and shape, and it carries
/// capacity, never state: both buffers are cleared before they are read,
/// so reusing a scratch changes no result. Once it has grown to the
/// largest out-degree and transition count it has seen, exploring and
/// repatching stop allocating in it.
#[derive(Debug, Clone)]
pub struct ExploreScratch<S> {
    successors: Vec<(f64, S)>,
    rates: Vec<f64>,
}

impl<S> ExploreScratch<S> {
    /// An empty scratch; its buffers grow on first use.
    #[must_use]
    pub fn new() -> ExploreScratch<S> {
        ExploreScratch {
            successors: Vec::new(),
            rates: Vec::new(),
        }
    }
}

impl<S> Default for ExploreScratch<S> {
    fn default() -> ExploreScratch<S> {
        ExploreScratch::new()
    }
}

/// The result of exploring a procedural model: the chain plus the mapping
/// between model states and CTMC indices.
#[derive(Debug, Clone)]
pub struct Explored<S> {
    ctmc: Ctmc,
    states: Vec<S>,
    /// The patch plan: every nonzero-rate rule output of the exploration,
    /// state by state in rule order, as `(successor index, CSR entry
    /// index)`. [`Explored::repatch`] replays it instead of looking states
    /// up. Indices are 32-bit: a chain with more entries could not be
    /// stored anyway.
    plan: Vec<(u32, u32)>,
    /// State `i`'s outputs are `plan[plan_starts[i]..plan_starts[i + 1]]`.
    plan_starts: Vec<u32>,
}

impl<S> Explored<S> {
    /// The explored chain. State `0` is the initial state.
    #[must_use]
    pub fn ctmc(&self) -> &Ctmc {
        &self.ctmc
    }

    /// The model state for a CTMC index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn state(&self, index: usize) -> &S {
        &self.states[index]
    }

    /// All discovered states, in index order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of discovered states.
    #[must_use]
    pub fn n_states(&self) -> usize {
        self.states.len()
    }

    /// Evaluates a per-state reward vector (e.g. 1.0 for "down" states).
    pub fn reward_vector<F: Fn(&S) -> f64>(&self, reward: F) -> Vec<f64> {
        self.states.iter().map(reward).collect()
    }
}

impl<S: PartialEq> Explored<S> {
    /// Rate-only rebuild: re-runs `successors` over the already-discovered
    /// states and patches the transition rates in place, keeping the state
    /// indexing and sparsity structure — no BFS, no hashing, no CSR
    /// re-sort.
    ///
    /// The rule works as in [`explore`], filling `scratch`'s successor
    /// buffer, and the rates are summed in `scratch`'s accumulator. With
    /// the scratch this chain was explored in, or any other that has grown
    /// as large, a repatch allocates nothing.
    ///
    /// The exploration recorded, for every state, its nonzero-rate rule
    /// outputs in order. Repatch requires the rule to reproduce that list
    /// exactly: zero-rate outputs are skipped as exploration skipped them,
    /// and every other output must name the same successor state, in the
    /// same position, with as many outputs per state as before. Each rate
    /// is then added to the recorded CSR entry.
    ///
    /// Returns `true` on success. Returns `false` — leaving the chain
    /// untouched — whenever the rule's output differs from the recorded
    /// one in any way: a different successor (including one never
    /// discovered, or the same successors in a different order), a missing
    /// or extra output, or a non-finite or negative rate. The caller then
    /// falls back to a full [`explore`], which also surfaces the proper
    /// error for invalid rules.
    ///
    /// When it succeeds, the patched chain is **bit-identical** to the one
    /// a fresh `explore` of the same rule would build: contributions to
    /// each entry are accumulated in rule-output order, which matches the
    /// insertion-order summation of the (stable-sorted) triplet build, and
    /// exit rates are re-derived the same way.
    pub fn repatch<F>(&mut self, scratch: &mut ExploreScratch<S>, mut successors: F) -> bool
    where
        F: FnMut(&S, &mut Vec<(f64, S)>),
    {
        let ExploreScratch {
            successors: out,
            rates: values,
        } = scratch;
        values.clear();
        values.resize(self.ctmc.n_transitions(), 0.0);
        let mut ok = true;
        'outer: for (from, state) in self.states.iter().enumerate() {
            let plan =
                &self.plan[self.plan_starts[from] as usize..self.plan_starts[from + 1] as usize];
            let mut expected = plan.iter();
            out.clear();
            successors(state, out);
            for &(rate, ref next) in out.iter() {
                if rate == 0.0 {
                    continue;
                }
                if !rate.is_finite() || rate < 0.0 {
                    ok = false; // invalid rule: rebuild reports the error
                    break 'outer;
                }
                match expected.next() {
                    Some(&(to, idx)) if self.states[to as usize] == *next => {
                        values[idx as usize] += rate;
                    }
                    _ => {
                        ok = false; // different or extra successor
                        break 'outer;
                    }
                }
            }
            if expected.next().is_some() {
                ok = false; // a recorded successor vanished
                break;
            }
        }
        // Every stored entry was fed at least one positive rate; the sum
        // can still overflow.
        ok = ok && values.iter().all(|v| v.is_finite());
        if ok {
            self.ctmc.patch_rates(values);
        }
        ok
    }
}

/// Explores the state space reachable from `initial` under `successors` and
/// builds the corresponding CTMC.
///
/// `successors(state, out)` appends the outgoing transitions of `state` to
/// `out` as `(rate, next_state)` pairs. `out` is `scratch`'s successor
/// buffer, cleared before every state, so a rule that only pushes
/// allocates nothing per state, and a scratch reused across explorations
/// and [`Explored::repatch`]es stops allocating once it has grown to the
/// largest out-degree. Transitions with zero rate are dropped;
/// transitions that lead back to the same state are rejected (model bug).
/// Exploration is breadth-first, so state indices are stable for a given
/// model: the initial state is index 0.
///
/// `max_states` bounds exploration as a defense against runaway models.
/// On top of it, `budget` may impose a (tighter) explored-state cap, a
/// wall-clock deadline and a cancellation token. Deadline and cancellation
/// are polled every 256 dequeued states; the state cap is enforced
/// exactly, on every newly discovered state.
///
/// # Errors
///
/// Returns [`MarkovError::StateOutOfRange`] (with `state == max_states`) if
/// the caller's own bound is exceeded, [`MarkovError::BudgetExhausted`]
/// naming the exhausted resource (`phase = "explore"`) when the budget's
/// state cap or deadline is, [`MarkovError::Cancelled`] when the token
/// fired, or any construction error from the underlying [`CtmcBuilder`].
/// Irreducibility is *not* checked here — truncated availability models
/// are frequently solved with solvers that check it themselves.
///
/// # Examples
///
/// ```
/// use aved_markov::{explore, DenseSolver, ExploreScratch, SolveBudget, SteadyStateSolver};
///
/// // 3 machines, each failing at 0.01/h and repaired at 1/h; state = number
/// // failed, capped at 2 concurrent failures (truncation).
/// let rule = |&k: &u32, out: &mut Vec<(f64, u32)>| {
///     if k < 2 {
///         out.push(((3 - k) as f64 * 0.01, k + 1));
///     }
///     if k > 0 {
///         out.push((k as f64 * 1.0, k - 1));
///     }
/// };
/// let mut scratch = ExploreScratch::new();
/// let explored = explore(0_u32, 10_000, &mut scratch, rule, &SolveBudget::unlimited())?;
/// assert_eq!(explored.n_states(), 3);
/// let pi = DenseSolver::default().steady_state(explored.ctmc())?;
/// assert!(pi[0] > 0.95);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn explore<S, F>(
    initial: S,
    max_states: usize,
    scratch: &mut ExploreScratch<S>,
    mut successors: F,
    budget: &SolveBudget,
) -> Result<Explored<S>, MarkovError>
where
    S: Clone + Eq + Hash,
    F: FnMut(&S, &mut Vec<(f64, S)>),
{
    let mut index: HashMap<S, usize> = HashMap::new();
    let mut states: Vec<S> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();

    // The budget's cap coexists with the caller's truncation bound; which
    // one trips determines the error (budget exhaustion vs. model runaway).
    let budget_states = budget.max_states().unwrap_or(usize::MAX);
    let governed = !budget.is_unlimited();
    let mut popped: usize = 0;

    index.insert(initial.clone(), 0);
    states.push(initial);
    queue.push_back(0);

    while let Some(from) = queue.pop_front() {
        if governed && popped.is_multiple_of(EXPLORE_CHECK_INTERVAL) {
            budget.checkpoint("explore", states.len() as u64)?;
        }
        popped += 1;
        let out = &mut scratch.successors;
        out.clear();
        successors(&states[from], out);
        for (rate, next) in out.drain(..) {
            if rate == 0.0 {
                continue;
            }
            let to = match index.get(&next) {
                Some(&i) => i,
                None => {
                    if states.len() >= budget_states {
                        return Err(MarkovError::BudgetExhausted {
                            phase: "explore",
                            resource: BudgetResource::States,
                            progress: states.len() as u64,
                            limit: budget_states as u64,
                        });
                    }
                    if states.len() >= max_states {
                        return Err(MarkovError::StateOutOfRange {
                            state: max_states,
                            n_states: max_states,
                        });
                    }
                    let i = states.len();
                    index.insert(next.clone(), i);
                    states.push(next);
                    queue.push_back(i);
                    i
                }
            };
            transitions.push((from, to, rate));
        }
    }

    // The index and the queue are done with; the states stay for the
    // chain's lifetime, so they give back their growth slack.
    drop((index, queue));
    states.shrink_to_fit();

    let mut builder = CtmcBuilder::new(states.len());
    for &(from, to, rate) in &transitions {
        builder.rate(from, to, rate);
    }
    let ctmc = builder.build_lenient()?;
    // Transitions were recorded state by state in rule order, so they are
    // already the patch plan once each carries its CSR entry index.
    let narrow = |i: usize| u32::try_from(i).expect("chain indices fit 32 bits");
    let mut plan_starts = Vec::with_capacity(states.len() + 1);
    plan_starts.push(0);
    let mut plan = Vec::with_capacity(transitions.len());
    for &(from, to, _) in &transitions {
        while plan_starts.len() <= from {
            plan_starts.push(narrow(plan.len()));
        }
        let idx = ctmc
            .entry_index(from, to)
            .expect("every explored transition is stored");
        plan.push((narrow(to), narrow(idx)));
    }
    plan_starts.resize(states.len() + 1, narrow(plan.len()));
    // Sized now, so the first repatch of this chain allocates nothing.
    scratch.rates.clear();
    scratch.rates.reserve(ctmc.n_transitions());
    Ok(Explored {
        ctmc,
        states,
        plan,
        plan_starts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseSolver, SteadyStateSolver};

    /// [`explore`] under an unlimited budget.
    fn explore_unlimited<S, F>(
        initial: S,
        max_states: usize,
        successors: F,
    ) -> Result<Explored<S>, MarkovError>
    where
        S: Clone + Eq + Hash,
        F: FnMut(&S, &mut Vec<(f64, S)>),
    {
        explore(
            initial,
            max_states,
            &mut ExploreScratch::new(),
            successors,
            &SolveBudget::unlimited(),
        )
    }

    /// A birth–death rule on `0..=top`: births at `up`, deaths at `down`.
    fn birth_death(top: u8, up: f64, down: f64) -> impl Fn(&u8, &mut Vec<(f64, u8)>) + Copy {
        move |&k, out| {
            if k < top {
                out.push((up, k + 1));
            }
            if k > 0 {
                out.push((down, k - 1));
            }
        }
    }

    #[test]
    fn explores_birth_death_chain() {
        let e = explore_unlimited(0_u8, 100, birth_death(3, 1.0, 2.0)).unwrap();
        assert_eq!(e.n_states(), 4);
        assert_eq!(*e.state(0), 0);
        // BFS ordering: states discovered in increasing k.
        assert_eq!(e.states(), &[0, 1, 2, 3]);
        let pi = DenseSolver::new().steady_state(e.ctmc()).unwrap();
        let bd = crate::birth_death::steady_state(&[1.0; 3], &[2.0; 3]).unwrap();
        for (a, b) in pi.iter().zip(bd.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn respects_state_bound() {
        let res = explore_unlimited(0_u64, 5, |&k, out| {
            out.extend([(1.0, k + 1), (1.0, k.saturating_sub(1))]);
        });
        assert!(res.is_err());
    }

    #[test]
    fn budget_state_cap_trips_before_the_truncation_bound() {
        let runaway = |&k: &u64, out: &mut Vec<(f64, u64)>| {
            out.extend([(1.0, k + 1), (1.0, k.saturating_sub(1))]);
        };
        let budget = SolveBudget::unlimited().with_max_states(5);
        match explore(0_u64, 1000, &mut ExploreScratch::new(), runaway, &budget) {
            Err(MarkovError::BudgetExhausted {
                phase: "explore",
                resource: BudgetResource::States,
                limit: 5,
                ..
            }) => {}
            other => panic!("expected explored-states exhaustion, got {other:?}"),
        }
        // The caller's own bound still reports the legacy error.
        assert!(matches!(
            explore(
                0_u64,
                5,
                &mut ExploreScratch::new(),
                runaway,
                &SolveBudget::unlimited()
            ),
            Err(MarkovError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn cancelled_token_stops_exploration() {
        let token = crate::CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_cancel(token);
        assert!(matches!(
            explore(
                0_u64,
                10,
                &mut ExploreScratch::new(),
                |&k, out| out.push((1.0, (k + 1) % 3)),
                &budget
            ),
            Err(MarkovError::Cancelled { phase: "explore" })
        ));
    }

    #[test]
    fn unlimited_budget_explores_identically() {
        let rule = birth_death(3, 1.0, 2.0);
        let plain = explore_unlimited(0_u8, 100, rule).unwrap();
        let governed = explore(
            0_u8,
            100,
            &mut ExploreScratch::new(),
            rule,
            &SolveBudget::unlimited().with_max_states(50),
        )
        .unwrap();
        assert_eq!(plain.ctmc(), governed.ctmc());
        assert_eq!(plain.states(), governed.states());
    }

    #[test]
    fn drops_zero_rate_transitions() {
        let e = explore_unlimited(0_u8, 10, |&k, out| match k {
            0 => out.extend([(0.0, 5_u8), (1.0, 1)]),
            1 => out.push((1.0, 0)),
            _ => {}
        })
        .unwrap();
        // State 5 is never materialized because its only incoming rate is 0.
        assert_eq!(e.n_states(), 2);
    }

    #[test]
    fn reward_vector_maps_states() {
        let e = explore_unlimited(0_u8, 10, |&k, out| out.push((1.0, 1 - k))).unwrap();
        let r = e.reward_vector(|&k| if k == 1 { 1.0 } else { 0.0 });
        assert_eq!(r, vec![0.0, 1.0]);
    }

    #[test]
    fn repatch_matches_fresh_explore_bit_for_bit() {
        let rule = |scale: f64| {
            move |&k: &u8, out: &mut Vec<(f64, u8)>| {
                if k < 3 {
                    out.push((scale * (3 - k) as f64, k + 1));
                }
                if k > 0 {
                    out.push((2.0 * scale * k as f64, k - 1));
                }
            }
        };
        let mut scratch = ExploreScratch::new();
        let mut warm = explore_unlimited(0_u8, 100, rule(1.0)).unwrap();
        // Same topology, different rates: must patch in place...
        assert!(warm.repatch(&mut scratch, rule(1.7)));
        // ...and agree bit-for-bit with a from-scratch exploration.
        let cold = explore_unlimited(0_u8, 100, rule(1.7)).unwrap();
        assert_eq!(warm.ctmc(), cold.ctmc());
        assert_eq!(warm.states(), cold.states());
        // Repeated repatching keeps working (buffers are recycled).
        assert!(warm.repatch(&mut scratch, rule(0.3)));
        assert_eq!(
            warm.ctmc(),
            explore_unlimited(0_u8, 100, rule(0.3)).unwrap().ctmc()
        );
    }

    #[test]
    fn repatch_ignores_what_the_scratch_held_before() {
        // Both buffers are cleared before they are read, so leftovers from
        // an unrelated chain cannot leak into the patched one.
        let rule = birth_death(3, 1.0, 2.0);
        let mut e = explore_unlimited(0_u8, 100, rule).unwrap();
        let mut scratch = ExploreScratch::new();
        let mut other = explore(
            0_u8,
            100,
            &mut scratch,
            birth_death(9, 5.0, 0.5),
            &SolveBudget::unlimited(),
        )
        .unwrap();
        assert!(other.repatch(&mut scratch, birth_death(9, 4.0, 0.25)));
        assert!(e.repatch(&mut scratch, rule));
        assert_eq!(e.ctmc(), explore_unlimited(0_u8, 100, rule).unwrap().ctmc());
    }

    #[test]
    fn repatch_rejects_topology_changes_and_leaves_chain_untouched() {
        let base = birth_death(2, 1.0, 2.0);
        let mut scratch = ExploreScratch::new();
        let mut e = explore_unlimited(0_u8, 100, base).unwrap();
        let before = e.ctmc().clone();

        // Deeper chain: introduces a state never discovered.
        let deeper = birth_death(3, 1.0, 2.0);
        assert!(!e.repatch(&mut scratch, deeper));
        assert_eq!(e.ctmc(), &before, "failed repatch must not corrupt");

        // Extra edge between existing states.
        let chord = |&k: &u8, out: &mut Vec<(f64, u8)>| {
            base(&k, out);
            if k == 0 {
                out.push((0.5, 2_u8));
            }
        };
        assert!(!e.repatch(&mut scratch, chord));
        assert_eq!(e.ctmc(), &before);

        // Vanished edge (rate dropped to zero).
        let pruned = |&k: &u8, out: &mut Vec<(f64, u8)>| {
            base(&k, out);
            if k == 2 {
                out.clear();
            }
        };
        assert!(!e.repatch(&mut scratch, pruned));
        assert_eq!(e.ctmc(), &before);

        // Invalid rate: bail so a full rebuild reports the real error.
        let negative = |&k: &u8, out: &mut Vec<(f64, u8)>| {
            if k == 0 {
                out.push((-1.0, 1_u8));
            } else {
                base(&k, out);
            }
        };
        assert!(!e.repatch(&mut scratch, negative));
        assert_eq!(e.ctmc(), &before);

        // The chain still repatches fine with a rate-only change.
        let scaled = birth_death(2, 3.0, 6.0);
        assert!(e.repatch(&mut scratch, scaled));
        assert_eq!(
            e.ctmc(),
            explore_unlimited(0_u8, 100, scaled).unwrap().ctmc()
        );
    }

    #[test]
    fn repatch_rejects_reordered_successors_and_leaves_chain_untouched() {
        let rule = |reversed: bool| {
            move |&k: &u8, out: &mut Vec<(f64, u8)>| {
                birth_death(3, 1.0, 2.0)(&k, out);
                if reversed {
                    out.reverse();
                }
            }
        };
        let mut scratch = ExploreScratch::new();
        let mut e = explore_unlimited(0_u8, 100, rule(false)).unwrap();
        let before = e.ctmc().clone();
        // Same successors, same rates, different order: the recorded plan
        // no longer lines up, so the caller must re-explore.
        assert!(!e.repatch(&mut scratch, rule(true)));
        assert_eq!(e.ctmc(), &before, "failed repatch must not corrupt");
        assert!(e.repatch(&mut scratch, rule(false)));
        assert_eq!(e.ctmc(), &before);
    }

    #[test]
    fn repatch_merges_duplicate_contributions_like_a_rebuild() {
        // Two rule outputs landing on the same (from, to) pair must merge
        // by summation in output order, exactly like the triplet build.
        let rule = |a: f64, b: f64| {
            move |&k: &u8, out: &mut Vec<(f64, u8)>| match k {
                0 => out.extend([(a, 1_u8), (b, 1_u8)]),
                _ => out.push((1.0, 0_u8)),
            }
        };
        let mut warm = explore_unlimited(0_u8, 10, rule(0.1, 0.2)).unwrap();
        assert!(warm.repatch(&mut ExploreScratch::new(), rule(0.3, 0.4)));
        let cold = explore_unlimited(0_u8, 10, rule(0.3, 0.4)).unwrap();
        assert_eq!(warm.ctmc(), cold.ctmc());
    }

    #[test]
    fn structured_states_work() {
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        struct St {
            failed: u8,
            failover: bool,
        }
        let e = explore_unlimited(
            St {
                failed: 0,
                failover: false,
            },
            100,
            |s, out| {
                if s.failed == 0 && !s.failover {
                    out.push((
                        0.01,
                        St {
                            failed: 1,
                            failover: true,
                        },
                    ));
                }
                if s.failover {
                    out.push((
                        10.0,
                        St {
                            failed: s.failed,
                            failover: false,
                        },
                    ));
                }
                if s.failed > 0 && !s.failover {
                    out.push((
                        1.0,
                        St {
                            failed: s.failed - 1,
                            failover: false,
                        },
                    ));
                }
            },
        )
        .unwrap();
        assert_eq!(e.n_states(), 3);
        let pi = DenseSolver::new().steady_state(e.ctmc()).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
