//! The `[params.<class>]` table: the one way a class gets non-stock
//! parameters.
//!
//! The table is keyed by the class's flag name (`cfs`, `ule`, `eevdf`,
//! `scx-vtime`) and takes two kinds of key:
//!
//! * the class's tunable dimensions ([`param_dims`]), by name and in raw
//!   units, durations in ns: what `results/tuned/<class>.toml` writes under
//!   `[params]`. A value outside the declared bounds, or a fraction for an
//!   integer or duration dimension, is an error (file input is never
//!   clamped). Dimensions left out keep their defaults, and the struct is
//!   decoded with [`ParamSpace::from_vector`], as `battle tune` decodes its
//!   candidates;
//! * the class's on/off switches ([`ParamSpace::switches`]), as booleans.
//!   The search never touches them.
//!
//! SimpleRR and scx-fifo have no parameters, so no table.

use sched_api::params::{ParamSpace, ParamVector};
use serde::Value;

use crate::spec::{check_keys, get_bool, get_f64, join, SpecError};
use crate::{param_dims, Sched};

/// One class's `[params.<class>]` table, decoded: a point in its parameter
/// space plus its switches.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassParams {
    /// The class the table configures.
    pub sched: Sched,
    /// One raw value per dimension, in [`param_dims`] order.
    pub vector: ParamVector,
    /// Every switch with its setting, in declared order.
    pub switches: Vec<(&'static str, bool)>,
}

fn stock_switches<P: ParamSpace>() -> Vec<(&'static str, bool)> {
    P::default()
        .switches()
        .into_iter()
        .map(|(name, on)| (name, *on))
        .collect()
}

impl ClassParams {
    /// `sched`'s stock parameters: what a table that sets nothing means.
    pub fn stock(sched: Sched) -> ClassParams {
        let switches = match sched {
            Sched::Cfs => stock_switches::<cfs::params::CfsParams>(),
            Sched::Ule => stock_switches::<ule::params::UleParams>(),
            Sched::Eevdf => stock_switches::<eevdf::EevdfParams>(),
            Sched::ScxVtime => stock_switches::<sched_api::scx::VtimeParams>(),
            Sched::SimpleRr | Sched::ScxFifo => Vec::new(),
        };
        ClassParams {
            sched,
            vector: ParamVector::defaults(&param_dims(sched)),
            switches,
        }
    }

    /// The setting of switch `name`, if the class has it.
    fn switch(&self, name: &str) -> Option<bool> {
        self.switches
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, on)| on)
    }

    /// The class's parameter struct: the vector decoded, then the switches
    /// set.
    pub fn decode<P: ParamSpace>(&self) -> P {
        let mut p = P::from_vector(&self.vector);
        for (name, field) in p.switches() {
            if let Some(on) = self.switch(name) {
                *field = on;
            }
        }
        p
    }

    fn from_value(sched: Sched, v: &Value, path: &str) -> Result<ClassParams, SpecError> {
        let dims = param_dims(sched);
        let mut table = ClassParams::stock(sched);
        let keys: Vec<&str> = dims
            .iter()
            .map(|d| d.name)
            .chain(table.switches.iter().map(|&(name, _)| name))
            .collect();
        check_keys(v, path, &keys)?;
        for (i, d) in dims.iter().enumerate() {
            let Some(x) = get_f64(v, path, d.name)? else {
                continue;
            };
            let whole = if d.scale.discrete() { " whole" } else { "" };
            if !(d.lo..=d.hi).contains(&x) || (d.scale.discrete() && x.fract() != 0.0) {
                return Err(SpecError::new(
                    join(path, d.name),
                    format!(
                        "{x} is not a{whole} number in the declared bounds [{}, {}]",
                        d.lo, d.hi
                    ),
                ));
            }
            table.vector.0[i] = x;
        }
        for (name, on) in &mut table.switches {
            if let Some(b) = get_bool(v, path, name)? {
                *on = b;
            }
        }
        Ok(table)
    }

    /// The table's keys whose values differ from stock.
    fn to_value(&self) -> Value {
        let dims = param_dims(self.sched);
        let stock = ClassParams::stock(self.sched);
        let mut f = Vec::new();
        for (i, d) in dims.iter().enumerate() {
            let x = self.vector.value(i, &dims);
            if x != stock.vector.value(i, &dims) {
                let value = if d.scale.discrete() {
                    Value::UInt(x as u64)
                } else {
                    Value::Float(x)
                };
                f.push((d.name.to_string(), value));
            }
        }
        for &(name, on) in &self.switches {
            if stock.switch(name) != Some(on) {
                f.push((name.to_string(), Value::Bool(on)));
            }
        }
        Value::Object(f)
    }
}

/// Parse the `params` table: one [`ClassParams`] per class key, in file
/// order.
pub(crate) fn from_value(v: &Value, path: &str) -> Result<Vec<ClassParams>, SpecError> {
    let Value::Object(fields) = v else {
        return Err(SpecError::new(path, "expected a table"));
    };
    let classes: Vec<&str> = Sched::TUNABLE.iter().map(|s| s.flag_name()).collect();
    check_keys(v, path, &classes)?;
    let mut out: Vec<ClassParams> = Vec::with_capacity(fields.len());
    for (key, table) in fields {
        let p = join(path, key);
        let sched = Sched::parse_flag(key).expect("class keys checked above");
        if out.iter().any(|t| t.sched == sched) {
            return Err(SpecError::new(p, "duplicate table"));
        }
        out.push(ClassParams::from_value(sched, table, &p)?);
    }
    Ok(out)
}

/// The `params` table of `tables`: each class with its non-stock keys.
pub(crate) fn to_value(tables: &[ClassParams]) -> Value {
    Value::Object(
        tables
            .iter()
            .map(|t| (t.sched.flag_name().to_string(), t.to_value()))
            .collect(),
    )
}
