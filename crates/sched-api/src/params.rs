//! Typed, serializable scheduler parameter spaces (`battle tune`).
//!
//! The paper holds every tunable at its shipped default; the auto-tuner
//! needs those tunables as *data*: a flat vector of numbers with declared
//! bounds, so a search algorithm can propose candidates without knowing
//! anything about the scheduler behind them. Each scheduler's params
//! struct implements [`ParamSpace`]:
//!
//! * [`ParamSpace::dims`] declares the tunable dimensions — name, bounds,
//!   default and a [`DimScale`] describing how the raw value maps into the
//!   search's normalised unit cube,
//! * [`ParamSpace::to_vector`] / [`ParamSpace::from_vector`] convert
//!   between the struct and a raw [`ParamVector`] (one `f64` per
//!   dimension, durations carried as nanoseconds),
//! * [`ParamSpace::switches`] names the on/off switches beside the
//!   dimensions, which the search never touches.
//!
//! Decoding always clamps to the declared bounds and rounds discrete
//! dimensions, so *any* vector — including one proposed by a search step
//! that walked past an edge — produces a valid configuration, and
//! `to_vector(from_vector(v))` is the identity on quantized in-bounds
//! vectors (the round-trip property the tuner's dedup cache relies on).

use simcore::Dur;

/// How a dimension maps between its raw value and the `[0, 1]` unit
/// interval the search samples in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimScale {
    /// Straight-line interpolation between the bounds.
    Linear,
    /// Exponential interpolation — equal unit steps multiply the raw value
    /// by equal factors. Bounds must be positive.
    Log,
    /// Linear, rounded to the nearest whole number (counts, percentages).
    Integer,
    /// A time span in nanoseconds. Log-interpolated (scheduler time
    /// tunables span orders of magnitude) and rounded to whole
    /// nanoseconds, so decoded values are exact [`Dur`]s.
    Duration,
}

impl DimScale {
    /// Stable lowercase label used in reports and the tuned-config TOML.
    pub fn label(self) -> &'static str {
        match self {
            DimScale::Linear => "linear",
            DimScale::Log => "log",
            DimScale::Integer => "integer",
            DimScale::Duration => "duration",
        }
    }

    /// `true` if decoded raw values are rounded to whole numbers.
    pub fn discrete(self) -> bool {
        matches!(self, DimScale::Integer | DimScale::Duration)
    }

    /// `true` if the unit mapping is logarithmic.
    pub fn logarithmic(self) -> bool {
        matches!(self, DimScale::Log | DimScale::Duration)
    }
}

/// One tunable dimension of a parameter space.
#[derive(Debug, Clone)]
pub struct Dim {
    /// Stable identifier (the key in tuned-config files and reports).
    pub name: &'static str,
    /// Inclusive lower bound, in raw units (ns for durations).
    pub lo: f64,
    /// Inclusive upper bound, in raw units.
    pub hi: f64,
    /// The shipped default, in raw units.
    pub default: f64,
    /// Raw ↔ unit mapping.
    pub scale: DimScale,
}

impl Dim {
    fn checked(self) -> Dim {
        assert!(
            self.lo < self.hi,
            "{}: empty bound range [{}, {}]",
            self.name,
            self.lo,
            self.hi
        );
        assert!(
            self.lo <= self.default && self.default <= self.hi,
            "{}: default {} outside [{}, {}]",
            self.name,
            self.default,
            self.lo,
            self.hi
        );
        if self.scale.logarithmic() {
            assert!(self.lo > 0.0, "{}: log scale needs positive lo", self.name);
        }
        self
    }

    /// A linearly interpolated dimension.
    pub fn linear(name: &'static str, lo: f64, hi: f64, default: f64) -> Dim {
        Dim {
            name,
            lo,
            hi,
            default,
            scale: DimScale::Linear,
        }
        .checked()
    }

    /// A log-interpolated dimension (positive bounds).
    pub fn log(name: &'static str, lo: f64, hi: f64, default: f64) -> Dim {
        Dim {
            name,
            lo,
            hi,
            default,
            scale: DimScale::Log,
        }
        .checked()
    }

    /// A whole-number dimension.
    pub fn integer(name: &'static str, lo: u64, hi: u64, default: u64) -> Dim {
        Dim {
            name,
            lo: lo as f64,
            hi: hi as f64,
            default: default as f64,
            scale: DimScale::Integer,
        }
        .checked()
    }

    /// A duration dimension, carried as nanoseconds.
    pub fn duration(name: &'static str, lo: Dur, hi: Dur, default: Dur) -> Dim {
        Dim {
            name,
            lo: lo.as_nanos() as f64,
            hi: hi.as_nanos() as f64,
            default: default.as_nanos() as f64,
            scale: DimScale::Duration,
        }
        .checked()
    }

    /// Clamp `raw` into the bounds and round it if the dimension is
    /// discrete. Every decoded value passes through this.
    pub fn quantize(&self, raw: f64) -> f64 {
        let c = if raw.is_nan() {
            self.default
        } else {
            raw.clamp(self.lo, self.hi)
        };
        if self.scale.discrete() {
            // Rounding can only move the value by < 1, but re-clamp so a
            // bound that is itself fractional stays honoured.
            c.round().clamp(self.lo.ceil(), self.hi.floor())
        } else {
            c
        }
    }

    /// Map a (quantized) raw value to the `[0, 1]` unit interval.
    pub fn to_unit(&self, raw: f64) -> f64 {
        let q = self.quantize(raw);
        let u = if self.scale.logarithmic() {
            (q.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (q - self.lo) / (self.hi - self.lo)
        };
        u.clamp(0.0, 1.0)
    }

    /// Map a unit-interval position back to a quantized raw value.
    pub fn from_unit(&self, u: f64) -> f64 {
        let u = if u.is_nan() { 0.5 } else { u.clamp(0.0, 1.0) };
        // Pin the corners exactly: exp(ln(hi)) need not round-trip in f64.
        let raw = if u == 0.0 {
            self.lo
        } else if u == 1.0 {
            self.hi
        } else if self.scale.logarithmic() {
            (self.lo.ln() + u * (self.hi.ln() - self.lo.ln())).exp()
        } else {
            self.lo + u * (self.hi - self.lo)
        };
        self.quantize(raw)
    }
}

/// A point in a parameter space: one raw `f64` per dimension, in
/// [`ParamSpace::dims`] order. Durations are nanoseconds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamVector(pub Vec<f64>);

impl ParamVector {
    /// The space's default point.
    pub fn defaults(dims: &[Dim]) -> ParamVector {
        ParamVector(dims.iter().map(|d| d.quantize(d.default)).collect())
    }

    /// Dimension `i`'s value, quantized; the default if the vector is
    /// short (so old tuned files stay loadable after a space grows).
    pub fn value(&self, i: usize, dims: &[Dim]) -> f64 {
        let d = &dims[i];
        self.0.get(i).map(|&x| d.quantize(x)).unwrap_or(d.default)
    }

    /// Dimension `i` as a [`Dur`] (must be a `Duration` dimension).
    pub fn dur(&self, i: usize, dims: &[Dim]) -> Dur {
        debug_assert_eq!(dims[i].scale, DimScale::Duration, "{}", dims[i].name);
        Dur::nanos(self.value(i, dims) as u64)
    }

    /// Dimension `i` as an unsigned integer.
    pub fn int(&self, i: usize, dims: &[Dim]) -> u64 {
        self.value(i, dims).max(0.0) as u64
    }

    /// Every value clamped/rounded per its dimension (identity on vectors
    /// already produced by `to_vector`/`from_unit`).
    pub fn quantized(&self, dims: &[Dim]) -> ParamVector {
        ParamVector(
            dims.iter()
                .enumerate()
                .map(|(i, _)| self.value(i, dims))
                .collect(),
        )
    }

    /// This point in unit space.
    pub fn to_units(&self, dims: &[Dim]) -> Vec<f64> {
        dims.iter()
            .enumerate()
            .map(|(i, d)| d.to_unit(self.value(i, dims)))
            .collect()
    }

    /// A quantized point from unit-space coordinates.
    pub fn from_units(units: &[f64], dims: &[Dim]) -> ParamVector {
        ParamVector(
            dims.iter()
                .enumerate()
                .map(|(i, d)| d.from_unit(units.get(i).copied().unwrap_or(0.5)))
                .collect(),
        )
    }

    /// Exact bit-pattern key for dedup caches (quantize first: the tuner
    /// only ever evaluates quantized vectors).
    pub fn bits_key(&self) -> Vec<u64> {
        self.0.iter().map(|v| v.to_bits()).collect()
    }
}

impl serde::Serialize for ParamVector {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Array(self.0.iter().map(|v| serde::Value::Float(*v)).collect())
    }
}

/// A scheduler configuration with a declared, searchable tunable space.
pub trait ParamSpace: Sized + Default {
    /// The tunable dimensions, in vector order. Stable across releases
    /// except by appending (tuned files key on position).
    fn dims() -> Vec<Dim>;

    /// Current values as a raw vector, one entry per dimension.
    fn to_vector(&self) -> ParamVector;

    /// Build a configuration from a raw vector. Out-of-bounds values are
    /// clamped, discrete dimensions rounded, missing entries defaulted;
    /// fields not covered by any dimension keep their `Default` value.
    fn from_vector(v: &ParamVector) -> Self;

    /// The on/off switches, by name, each with its field: mechanisms an
    /// ablation turns off one at a time. The search never touches them
    /// (`from_vector` leaves them at their defaults). None by default.
    fn switches(&mut self) -> Vec<(&'static str, &mut bool)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> Vec<Dim> {
        vec![
            Dim::linear("lin", -2.0, 6.0, 0.0),
            Dim::log("log", 0.5, 512.0, 8.0),
            Dim::integer("int", 1, 9, 3),
            Dim::duration("dur", Dur::micros(100), Dur::millis(100), Dur::millis(4)),
        ]
    }

    #[test]
    fn clamping_at_both_edges() {
        for d in dims() {
            assert_eq!(d.quantize(f64::NEG_INFINITY), d.lo);
            assert_eq!(d.quantize(f64::INFINITY), d.hi);
            assert_eq!(d.quantize(d.lo - 1.0), d.lo);
            assert_eq!(d.quantize(d.hi + 1.0), d.hi);
            assert_eq!(d.quantize(d.lo), d.lo);
            assert_eq!(d.quantize(d.hi), d.hi);
            assert_eq!(d.quantize(f64::NAN), d.quantize(d.default));
        }
    }

    #[test]
    fn unit_mapping_hits_the_corners() {
        for d in dims() {
            assert_eq!(d.from_unit(0.0), d.lo);
            assert_eq!(d.from_unit(1.0), d.hi);
            assert!((d.to_unit(d.lo) - 0.0).abs() < 1e-12);
            assert!((d.to_unit(d.hi) - 1.0).abs() < 1e-12);
            // Out-of-cube positions clamp instead of extrapolating.
            assert_eq!(d.from_unit(-3.0), d.lo);
            assert_eq!(d.from_unit(7.0), d.hi);
        }
    }

    #[test]
    fn log_scale_duration_is_multiplicative() {
        let d = Dim::duration("slice", Dur::millis(1), Dur::millis(64), Dur::millis(8));
        // Halfway in unit space = geometric mean of the bounds: 8 ms.
        let mid = d.from_unit(0.5);
        assert_eq!(mid, Dur::millis(8).as_nanos() as f64);
        // Equal unit steps multiply by equal factors: over a ×16 range,
        // each quarter step doubles.
        let d16 = Dim::duration("slice16", Dur::millis(1), Dur::millis(16), Dur::millis(4));
        assert_eq!(d16.from_unit(0.25), Dur::millis(2).as_nanos() as f64);
        assert_eq!(d16.from_unit(0.75), Dur::millis(8).as_nanos() as f64);
        // Decoded durations are whole nanoseconds.
        let v = d.from_unit(0.371);
        assert_eq!(v, v.round());
    }

    #[test]
    fn integer_dims_round() {
        let d = Dim::integer("n", 1, 9, 3);
        assert_eq!(d.quantize(4.4), 4.0);
        assert_eq!(d.quantize(4.6), 5.0);
        assert_eq!(d.from_unit(0.5), 5.0);
    }

    #[test]
    fn vector_roundtrip_identity() {
        let dims = dims();
        for u in [0.0, 0.1, 0.33, 0.5, 0.77, 1.0] {
            let units = vec![u; dims.len()];
            let v = ParamVector::from_units(&units, &dims);
            // quantized → unit → raw is stable.
            let back = ParamVector::from_units(&v.to_units(&dims), &dims);
            assert_eq!(v, back, "u = {u}");
            assert_eq!(v.quantized(&dims), v);
        }
    }

    #[test]
    fn short_vectors_fall_back_to_defaults() {
        let dims = dims();
        let v = ParamVector(vec![1.5]);
        assert_eq!(v.value(0, &dims), 1.5);
        assert_eq!(v.value(2, &dims), 3.0);
        assert_eq!(v.dur(3, &dims), Dur::millis(4));
    }
}
