//! Scale-aware time and count expressions.
//!
//! Every figure formula is some affine function of the run's `scale` with
//! clamps: `Dur::secs_f64(420.0 * scale + 30.0)`,
//! `Dur::secs_f64(14.5 * scale.max(0.05))`, `((512.0 * scale) as usize)
//! .max(2 * ncpu)`. [`TimeExpr`] and [`CountExpr`] capture exactly that
//! family, so a figure's scenario file states its workload at any scale.
//!
//! In TOML a plain number is shorthand for a scaled base:
//! `horizon = 220.0` with `scaled = false` spelled out, or the table form
//! `horizon = { base_s = 420, plus_s = 30 }`.

use serde::Value;
use simcore::Dur;

use crate::spec::{check_keys, get_bool, get_f64, get_u64, SpecError};

/// A duration expression: `max((scaled? base_s * clamp(scale) : base_s) + plus_s, min_s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeExpr {
    /// Base duration in (scaled) seconds.
    pub base_s: f64,
    /// Whether `base_s` is multiplied by the run scale (default true).
    pub scaled: bool,
    /// Lower clamp applied to the scale factor before multiplying.
    pub scale_min: f64,
    /// Upper clamp applied to the scale factor before multiplying.
    pub scale_max: f64,
    /// Unscaled seconds added after scaling.
    pub plus_s: f64,
    /// Floor on the final result, in seconds.
    pub min_s: f64,
}

impl TimeExpr {
    /// A fixed (never scaled) duration.
    pub fn fixed(secs: f64) -> TimeExpr {
        TimeExpr {
            base_s: secs,
            scaled: false,
            ..TimeExpr::default()
        }
    }

    /// A plain scaled duration (`base_s * scale`).
    pub fn scaled(secs: f64) -> TimeExpr {
        TimeExpr {
            base_s: secs,
            ..TimeExpr::default()
        }
    }

    /// Evaluate at a scale, producing a simulator duration.
    pub fn eval(&self, scale: f64) -> Dur {
        let base = if self.scaled {
            self.base_s * scale.clamp(self.scale_min, self.scale_max)
        } else {
            self.base_s
        };
        Dur::secs_f64((base + self.plus_s).max(self.min_s))
    }

    /// Parse from a scenario value: a bare number (scaled shorthand) or a
    /// table with any of `base_s`, `scaled`, `scale_min`, `scale_max`,
    /// `plus_s`, `min_s`.
    pub fn from_value(v: &Value, path: &str) -> Result<TimeExpr, SpecError> {
        match v {
            Value::Object(_) => {
                check_keys(
                    v,
                    path,
                    &[
                        "base_s",
                        "scaled",
                        "scale_min",
                        "scale_max",
                        "plus_s",
                        "min_s",
                    ],
                )?;
                let d = TimeExpr::default();
                Ok(TimeExpr {
                    base_s: get_f64(v, path, "base_s")?.unwrap_or(0.0),
                    scaled: get_bool(v, path, "scaled")?.unwrap_or(d.scaled),
                    scale_min: get_f64(v, path, "scale_min")?.unwrap_or(d.scale_min),
                    scale_max: get_f64(v, path, "scale_max")?.unwrap_or(d.scale_max),
                    plus_s: get_f64(v, path, "plus_s")?.unwrap_or(d.plus_s),
                    min_s: get_f64(v, path, "min_s")?.unwrap_or(d.min_s),
                })
            }
            _ => match v.as_f64() {
                Some(secs) => Ok(TimeExpr::scaled(secs)),
                None => Err(SpecError::new(
                    path,
                    "expected a number of (scaled) seconds or a time table",
                )),
            },
        }
    }

    /// Serialize back to the most compact form that round-trips.
    pub fn to_value(&self) -> Value {
        let d = TimeExpr::default();
        if self.scaled
            && self.scale_min == d.scale_min
            && self.scale_max == d.scale_max
            && self.plus_s == d.plus_s
            && self.min_s == d.min_s
        {
            return Value::Float(self.base_s);
        }
        let mut fields = vec![("base_s".to_string(), Value::Float(self.base_s))];
        if self.scaled != d.scaled {
            fields.push(("scaled".to_string(), Value::Bool(self.scaled)));
        }
        if self.scale_min != d.scale_min {
            fields.push(("scale_min".to_string(), Value::Float(self.scale_min)));
        }
        if self.scale_max != d.scale_max {
            fields.push(("scale_max".to_string(), Value::Float(self.scale_max)));
        }
        if self.plus_s != d.plus_s {
            fields.push(("plus_s".to_string(), Value::Float(self.plus_s)));
        }
        if self.min_s != d.min_s {
            fields.push(("min_s".to_string(), Value::Float(self.min_s)));
        }
        Value::Object(fields)
    }
}

impl Default for TimeExpr {
    fn default() -> Self {
        TimeExpr {
            base_s: 0.0,
            scaled: true,
            scale_min: 0.0,
            scale_max: f64::INFINITY,
            plus_s: 0.0,
            min_s: 0.0,
        }
    }
}

/// A count expression: `clamp(round(scaled? base * scale : base), floors, max)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountExpr {
    /// Base count (at scale 1.0 when scaled).
    pub base: u64,
    /// Whether `base` is multiplied by the run scale.
    pub scaled: bool,
    /// Absolute floor on the result.
    pub min: u64,
    /// Floor expressed per CPU of the run topology (`min_per_cpu * ncpu`).
    pub min_per_cpu: u64,
    /// Optional absolute cap.
    pub max: Option<u64>,
}

impl CountExpr {
    /// A fixed (never scaled) count.
    pub fn fixed(n: u64) -> CountExpr {
        CountExpr {
            base: n,
            scaled: false,
            min: 0,
            min_per_cpu: 0,
            max: None,
        }
    }

    /// Evaluate at a scale on a machine with `ncpu` CPUs.
    pub fn eval(&self, scale: f64, ncpu: usize) -> u64 {
        let n = if self.scaled {
            (self.base as f64 * scale).round() as u64
        } else {
            self.base
        };
        let n = n.max(self.min).max(self.min_per_cpu * ncpu as u64);
        match self.max {
            Some(cap) => n.min(cap),
            None => n,
        }
    }

    /// Parse from a scenario value: a bare integer (fixed shorthand) or a
    /// table `{ base, scaled?, min?, min_per_cpu?, max? }` (scaled by
    /// default, floor 1).
    pub fn from_value(v: &Value, path: &str) -> Result<CountExpr, SpecError> {
        match v {
            Value::Object(_) => {
                check_keys(v, path, &["base", "scaled", "min", "min_per_cpu", "max"])?;
                let base = get_u64(v, path, "base")?
                    .ok_or_else(|| SpecError::new(path, "count table needs a `base` field"))?;
                Ok(CountExpr {
                    base,
                    scaled: get_bool(v, path, "scaled")?.unwrap_or(true),
                    min: get_u64(v, path, "min")?.unwrap_or(1),
                    min_per_cpu: get_u64(v, path, "min_per_cpu")?.unwrap_or(0),
                    max: get_u64(v, path, "max")?,
                })
            }
            _ => match v.as_u64() {
                Some(n) => Ok(CountExpr::fixed(n)),
                None => Err(SpecError::new(
                    path,
                    "expected a non-negative integer or a count table",
                )),
            },
        }
    }

    /// Serialize back to the most compact form that round-trips.
    pub fn to_value(&self) -> Value {
        if !self.scaled && self.min == 0 && self.min_per_cpu == 0 && self.max.is_none() {
            return Value::UInt(self.base);
        }
        let mut fields = vec![("base".to_string(), Value::UInt(self.base))];
        if !self.scaled {
            fields.push(("scaled".to_string(), Value::Bool(false)));
        }
        if self.min != 1 {
            fields.push(("min".to_string(), Value::UInt(self.min)));
        }
        if self.min_per_cpu != 0 {
            fields.push(("min_per_cpu".to_string(), Value::UInt(self.min_per_cpu)));
        }
        if let Some(cap) = self.max {
            fields.push(("max".to_string(), Value::UInt(cap)));
        }
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: &str) -> TimeExpr {
        let v = crate::toml::parse(&format!("x = {src}\n")).unwrap();
        TimeExpr::from_value(v.get("x").unwrap(), "x").unwrap()
    }

    fn c(src: &str) -> CountExpr {
        let v = crate::toml::parse(&format!("x = {src}\n")).unwrap();
        CountExpr::from_value(v.get("x").unwrap(), "x").unwrap()
    }

    #[test]
    fn time_matches_figure_formulas() {
        // fig1 horizon: 420*scale + 30.
        let h = t("{ base_s = 420.0, plus_s = 30.0 }");
        assert_eq!(h.eval(0.05), Dur::secs_f64(420.0 * 0.05 + 30.0));
        // fig1 step: max(1*scale, 0.05).
        let s = t("{ base_s = 1.0, min_s = 0.05 }");
        assert_eq!(s.eval(0.01), Dur::secs_f64(0.05));
        assert_eq!(s.eval(0.5), Dur::secs_f64(0.5));
        // fig6 unpin: 14.5 * scale.max(0.05).
        let u = t("{ base_s = 14.5, scale_min = 0.05 }");
        assert_eq!(u.eval(0.02), Dur::secs_f64(14.5 * 0.05));
        // fig7 work: 6 * scale.clamp(0.3, 1.0).
        let w = t("{ base_s = 6.0, scale_min = 0.3, scale_max = 1.0 }");
        assert_eq!(w.eval(2.0), Dur::secs_f64(6.0));
        assert_eq!(w.eval(0.05), Dur::secs_f64(6.0 * 0.3));
        // Fixed horizons ignore the scale.
        let f = t("{ base_s = 220.0, scaled = false }");
        assert_eq!(f.eval(0.01), Dur::secs_f64(220.0));
        // Bare-number shorthand scales.
        assert_eq!(t("160.0").eval(0.5), Dur::secs_f64(80.0));
    }

    #[test]
    fn count_matches_figure_formulas() {
        // fig6 threads: max(round(512*scale), 2*ncpu).
        let n = c("{ base = 512, min_per_cpu = 2 }");
        assert_eq!(n.eval(0.02, 32), 64);
        assert_eq!(n.eval(1.0, 32), 512);
        // fig1 sysbench tx: max(round(260000*scale), 500).
        let tx = c("{ base = 260000, min = 500 }");
        assert_eq!(tx.eval(0.001, 1), 500);
        assert_eq!(tx.eval(0.05, 1), 13000);
        // Bare integer is fixed.
        assert_eq!(c("80").eval(0.01, 32), 80);
    }

    #[test]
    fn round_trip_compact_forms() {
        for src in [
            "160.0",
            "{ base_s = 14.5, scale_min = 0.05 }",
            "{ base_s = 220.0, scaled = false }",
        ] {
            let e = t(src);
            assert_eq!(TimeExpr::from_value(&e.to_value(), "x").unwrap(), e);
        }
        for src in [
            "512",
            "{ base = 512, min_per_cpu = 2 }",
            "{ base = 260000, min = 500 }",
        ] {
            let e = c(src);
            assert_eq!(CountExpr::from_value(&e.to_value(), "x").unwrap(), e);
        }
    }

    #[test]
    fn unknown_key_rejected() {
        let v = crate::toml::parse("x = { base_s = 1.0, bogus = 2 }\n").unwrap();
        let e = TimeExpr::from_value(v.get("x").unwrap(), "run.horizon").unwrap_err();
        assert!(e.to_string().contains("run.horizon"), "{e}");
        assert!(e.to_string().contains("bogus"), "{e}");
    }
}
