//! Symbolic data rates.
//!
//! StreamIt programs are incognizant of input size: an actor may declare
//! `pop N` where `N` is a program parameter bound only at runtime. Adaptic
//! exploits exactly this — pop/push/peek rates, and therefore thread/block
//! counts and memory-access counts, are *symbolic functions of the input
//! size and dimensions* that the compiler reasons about at compile time.
//!
//! [`RateExpr`] is a small polynomial over named parameters with integer
//! coefficients: sums of terms, where each term is a coefficient times a
//! product of parameters (e.g. `2*rows*cols + 3*rows + 1`). This covers
//! every rate in the paper's benchmarks (linear rates like `cols`, and
//! area rates like `rows*cols` for whole-matrix actors) while remaining
//! trivially comparable and evaluable.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul};

use crate::error::{Error, Result};

/// A single polynomial term: `coef * Π vars`.
///
/// `vars` is kept sorted so structurally equal terms compare equal.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Term {
    /// Sorted list of parameter names; repeated names express powers.
    vars: Vec<String>,
    coef: i64,
}

/// A symbolic rate: a polynomial over named program parameters.
///
/// # Example
///
/// ```
/// use streamir::rates::RateExpr;
///
/// let rate = RateExpr::param("rows") * RateExpr::param("cols");
/// let mut binds = std::collections::BTreeMap::new();
/// binds.insert("rows".to_string(), 4i64);
/// binds.insert("cols".to_string(), 8i64);
/// assert_eq!(rate.eval(&binds).unwrap(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RateExpr {
    /// Terms sorted by variable multiset; no zero coefficients; constant
    /// term has an empty `vars` list.
    terms: Vec<Term>,
}

/// Parameter bindings used to evaluate symbolic rates.
pub type Bindings = BTreeMap<String, i64>;

/// The declared runtime interval of a *dynamic* rate parameter.
///
/// Static SDF fixes every rate at plan time; a dynamic-rate actor instead
/// declares that a rate parameter ranges over `[lo, hi]` at runtime
/// (Boutellier & Hautala-style dynamic data rates). Declarations merge
/// program-wide by intersection ([`crate::schedule::merged_rate_intervals`]),
/// and the runtime plans the program once over the merged interval — the
/// range of input sizes the variant table covers.
///
/// Bounds are inclusive and must satisfy `1 <= lo <= hi`: a rate of zero
/// has no steady state ([`crate::schedule::rate_match`] rejects it), so
/// zero is not a declarable runtime rate either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RateInterval {
    /// Smallest runtime value the parameter may take (inclusive, >= 1).
    pub lo: i64,
    /// Largest runtime value the parameter may take (inclusive).
    pub hi: i64,
}

impl RateInterval {
    /// A validated interval.
    ///
    /// # Errors
    ///
    /// [`Error::Semantic`] unless `1 <= lo <= hi`.
    pub fn new(lo: i64, hi: i64) -> Result<RateInterval> {
        if lo < 1 || hi < lo {
            return Err(Error::Semantic(format!(
                "rate interval [{lo}, {hi}] must satisfy 1 <= lo <= hi"
            )));
        }
        Ok(RateInterval { lo, hi })
    }

    /// True when `x` lies inside the interval.
    pub fn contains(&self, x: i64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// `x` clamped into the interval.
    pub fn clamp(&self, x: i64) -> i64 {
        x.clamp(self.lo, self.hi)
    }

    /// The intersection with `other`, or `None` when they are disjoint.
    pub fn intersect(&self, other: &RateInterval) -> Option<RateInterval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(RateInterval { lo, hi })
    }

    /// Number of integer points covered.
    pub fn span(&self) -> i64 {
        self.hi - self.lo + 1
    }
}

impl fmt::Display for RateInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

impl RateExpr {
    /// The constant-zero rate.
    pub fn zero() -> Self {
        RateExpr { terms: Vec::new() }
    }

    /// A constant rate.
    pub fn constant(c: i64) -> Self {
        if c == 0 {
            return Self::zero();
        }
        RateExpr {
            terms: vec![Term {
                vars: Vec::new(),
                coef: c,
            }],
        }
    }

    /// The rate equal to a single named parameter.
    pub fn param(name: &str) -> Self {
        RateExpr {
            terms: vec![Term {
                vars: vec![name.to_string()],
                coef: 1,
            }],
        }
    }

    /// True when the rate is a compile-time constant.
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|t| t.vars.is_empty())
    }

    /// Returns the constant value when [`Self::is_constant`], else `None`.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.terms.first().map_or(0, |t| t.coef))
        } else {
            None
        }
    }

    /// Returns the parameter name when the rate is exactly one parameter
    /// with coefficient 1 (e.g. `pop N`), else `None`.
    pub fn as_single_param(&self) -> Option<&str> {
        match self.terms.as_slice() {
            [t] if t.coef == 1 && t.vars.len() == 1 => Some(&t.vars[0]),
            _ => None,
        }
    }

    /// All parameter names mentioned by the rate, deduplicated and sorted.
    pub fn params(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .terms
            .iter()
            .flat_map(|t| t.vars.iter().map(String::as_str))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate under the given parameter bindings.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnboundParam`] if a mentioned parameter is missing
    /// from `binds`.
    pub fn eval(&self, binds: &Bindings) -> Result<i64> {
        let mut total: i64 = 0;
        for t in &self.terms {
            let mut v = t.coef;
            for p in &t.vars {
                let x = *binds.get(p).ok_or_else(|| Error::UnboundParam(p.clone()))?;
                v = v.saturating_mul(x);
            }
            total = total.saturating_add(v);
        }
        Ok(total)
    }

    /// Degree of the polynomial (0 for constants, 1 for linear, ...).
    pub fn degree(&self) -> usize {
        self.terms.iter().map(|t| t.vars.len()).max().unwrap_or(0)
    }

    fn normalize(mut terms: Vec<Term>) -> Self {
        for t in &mut terms {
            t.vars.sort_unstable();
        }
        terms.sort_by(|a, b| a.vars.cmp(&b.vars));
        let mut out: Vec<Term> = Vec::with_capacity(terms.len());
        for t in terms {
            match out.last_mut() {
                Some(last) if last.vars == t.vars => last.coef += t.coef,
                _ => out.push(t),
            }
        }
        out.retain(|t| t.coef != 0);
        RateExpr { terms: out }
    }
}

impl Default for RateExpr {
    fn default() -> Self {
        Self::zero()
    }
}

impl Add for RateExpr {
    type Output = RateExpr;

    fn add(self, rhs: RateExpr) -> RateExpr {
        let mut terms = self.terms;
        terms.extend(rhs.terms);
        RateExpr::normalize(terms)
    }
}

impl Mul for RateExpr {
    type Output = RateExpr;

    fn mul(self, rhs: RateExpr) -> RateExpr {
        let mut terms = Vec::with_capacity(self.terms.len() * rhs.terms.len());
        for a in &self.terms {
            for b in &rhs.terms {
                let mut vars = a.vars.clone();
                vars.extend(b.vars.iter().cloned());
                terms.push(Term {
                    vars,
                    coef: a.coef * b.coef,
                });
            }
        }
        RateExpr::normalize(terms)
    }
}

impl Mul<i64> for RateExpr {
    type Output = RateExpr;

    fn mul(self, rhs: i64) -> RateExpr {
        self * RateExpr::constant(rhs)
    }
}

impl From<i64> for RateExpr {
    fn from(c: i64) -> Self {
        RateExpr::constant(c)
    }
}

impl fmt::Display for RateExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if t.vars.is_empty() {
                write!(f, "{}", t.coef)?;
            } else if t.coef == 1 {
                write!(f, "{}", t.vars.join("*"))?;
            } else {
                write!(f, "{}*{}", t.coef, t.vars.join("*"))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn binds(pairs: &[(&str, i64)]) -> Bindings {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn constants_evaluate() {
        assert_eq!(RateExpr::constant(7).eval(&binds(&[])).unwrap(), 7);
        assert_eq!(RateExpr::zero().eval(&binds(&[])).unwrap(), 0);
    }

    #[test]
    fn params_evaluate() {
        let n = RateExpr::param("N");
        assert_eq!(n.eval(&binds(&[("N", 42)])).unwrap(), 42);
        assert_eq!(n.eval(&binds(&[])), Err(Error::UnboundParam("N".into())));
    }

    #[test]
    fn addition_merges_like_terms() {
        let e = RateExpr::param("N") + RateExpr::param("N") + RateExpr::constant(3);
        assert_eq!(e.eval(&binds(&[("N", 5)])).unwrap(), 13);
        assert_eq!(e.to_string(), "3 + 2*N");
    }

    #[test]
    fn multiplication_builds_products() {
        let e = RateExpr::param("rows") * RateExpr::param("cols");
        assert_eq!(e.eval(&binds(&[("rows", 3), ("cols", 4)])).unwrap(), 12);
        assert_eq!(e.degree(), 2);
    }

    #[test]
    fn cancellation_yields_zero() {
        let e = RateExpr::param("N") + (RateExpr::param("N") * -1);
        assert_eq!(e, RateExpr::zero());
        assert!(e.is_constant());
        assert_eq!(e.as_constant(), Some(0));
    }

    #[test]
    fn as_single_param_recognizes_bare_params_only() {
        assert_eq!(RateExpr::param("N").as_single_param(), Some("N"));
        assert_eq!((RateExpr::param("N") * 2).as_single_param(), None);
        assert_eq!(RateExpr::constant(1).as_single_param(), None);
        assert_eq!(
            (RateExpr::param("a") * RateExpr::param("b")).as_single_param(),
            None
        );
    }

    #[test]
    fn params_are_deduped_and_sorted() {
        let e = RateExpr::param("b") * RateExpr::param("a") + RateExpr::param("b");
        assert_eq!(e.params(), vec!["a", "b"]);
    }

    #[test]
    fn equality_is_structural_after_normalization() {
        let a = RateExpr::param("x") * RateExpr::param("y");
        let b = RateExpr::param("y") * RateExpr::param("x");
        assert_eq!(a, b);
    }

    #[test]
    fn display_of_zero() {
        assert_eq!(RateExpr::zero().to_string(), "0");
    }

    #[test]
    fn distributivity() {
        // (N + 1) * (N + 2) == N^2 + 3N + 2
        let lhs = (RateExpr::param("N") + RateExpr::constant(1))
            * (RateExpr::param("N") + RateExpr::constant(2));
        let rhs = RateExpr::param("N") * RateExpr::param("N")
            + RateExpr::param("N") * 3
            + RateExpr::constant(2);
        assert_eq!(lhs, rhs);
    }
}
