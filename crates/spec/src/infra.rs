//! Parser for infrastructure model documents (paper Fig. 3).

use aved_model::{
    ComponentType, DurationSpec, EffectKind, EffectValue, FailureMode, Infrastructure, Mechanism,
    ParamRange, Parameter, ResourceComponent, ResourceType,
};
use aved_units::{Duration, Money};

use crate::{Attr, Line, SpecError, SpecErrorKind, Value};

/// Parses an infrastructure model and validates its cross-references.
///
/// # Errors
///
/// Returns [`SpecError`] on syntax errors, values of the wrong shape,
/// attributes in the wrong context, or semantic validation failures.
pub fn parse_infrastructure(text: &str) -> Result<Infrastructure, SpecError> {
    let lines = crate::lex_document(text)?;
    let mut parser = InfraParser::default();
    for line in &lines {
        parser.line(line)?;
    }
    let infra = parser.finish();
    infra.validate().map_err(SpecError::from)?;
    Ok(infra)
}

#[derive(Default)]
struct InfraParser {
    infra: Infrastructure,
    component: Option<ComponentType>,
    mechanism: Option<Mechanism>,
    resource: Option<ResourceType>,
}

impl InfraParser {
    fn line(&mut self, line: &Line) -> Result<(), SpecError> {
        let kw = line.keyword();
        match kw.name.as_str() {
            "component" if self.resource.is_some() => self.resource_slot(line),
            "component" => self.start_component(line),
            "failure" => self.failure_mode(line),
            "mechanism" => self.start_mechanism(line),
            "param" => self.mechanism_param(line),
            "cost" => self.mechanism_cost(line),
            "mtbf" if self.mechanism.is_some() => self.mechanism_effect(line, EffectKind::Mtbf),
            "mttr" => self.mechanism_effect(line, EffectKind::Mttr),
            "loss_window" => self.mechanism_effect(line, EffectKind::LossWindow),
            "resource" => self.start_resource(line),
            other => Err(structure(
                line.number,
                format!("unexpected attribute {other} in infrastructure model"),
            )),
        }
    }

    fn finish(mut self) -> Infrastructure {
        self.flush();
        self.infra
    }

    fn flush(&mut self) {
        if let Some(c) = self.component.take() {
            self.infra = std::mem::take(&mut self.infra).with_component(c);
        }
        if let Some(m) = self.mechanism.take() {
            self.infra = std::mem::take(&mut self.infra).with_mechanism(m);
        }
        if let Some(r) = self.resource.take() {
            self.infra = std::mem::take(&mut self.infra).with_resource(r);
        }
    }

    fn start_component(&mut self, line: &Line) -> Result<(), SpecError> {
        self.flush();
        let name = word(line.number, line.keyword())?;
        let mut c = ComponentType::new(name);
        for attr in &line.attrs[1..] {
            match attr.name.as_str() {
                "cost" => {
                    c = apply_component_cost(c, line.number, attr)?;
                }
                "max_instances" => {
                    let n: usize = word(line.number, attr)?
                        .parse()
                        .map_err(|_| value_err(line.number, "max_instances must be an integer"))?;
                    c = c.with_max_instances(n);
                }
                "loss_window" => {
                    let spec = duration_spec(line.number, attr)?;
                    c = c.with_loss_window(spec);
                }
                other => {
                    return Err(structure(
                        line.number,
                        format!("unexpected component attribute {other}"),
                    ))
                }
            }
        }
        self.component = Some(c);
        Ok(())
    }

    fn failure_mode(&mut self, line: &Line) -> Result<(), SpecError> {
        let component = self
            .component
            .as_mut()
            .ok_or_else(|| structure(line.number, "failure= outside a component section".into()))?;
        let name = word(line.number, line.keyword())?.to_owned();
        let mtbf_attr = line
            .attr("mtbf")
            .ok_or_else(|| structure(line.number, "failure mode is missing mtbf".into()))?;
        let mtbf = duration_spec(line.number, mtbf_attr)?;
        let detect = duration_attr(line, "detect_time")?;
        let mttr_attr = line
            .attr("mttr")
            .ok_or_else(|| structure(line.number, "failure mode is missing mttr".into()))?;
        let repair = duration_spec(line.number, mttr_attr)?;
        let mode = FailureMode::new(name, mtbf, repair, detect);
        // ComponentType uses a by-value builder; rebuild in place.
        let rebuilt = component.clone().with_failure_mode(mode);
        *component = rebuilt;
        Ok(())
    }

    fn start_mechanism(&mut self, line: &Line) -> Result<(), SpecError> {
        // `mechanism=` also appears in service models (attached to resource
        // options); in an infrastructure document it always declares one.
        self.flush();
        let name = word(line.number, line.keyword())?;
        self.mechanism = Some(Mechanism::new(name));
        Ok(())
    }

    fn mechanism_param(&mut self, line: &Line) -> Result<(), SpecError> {
        let mech = self
            .mechanism
            .as_mut()
            .ok_or_else(|| structure(line.number, "param= outside a mechanism section".into()))?;
        let name = word(line.number, line.keyword())?.to_owned();
        let range_attr = line
            .attr("range")
            .ok_or_else(|| structure(line.number, "param is missing range".into()))?;
        let body = range_attr
            .value
            .as_bracket()
            .ok_or_else(|| value_err(line.number, "range must be a bracketed body"))?;
        let range = parse_param_range(line.number, body)?;
        let rebuilt = mech.clone().with_param(Parameter::new(name, range));
        *mech = rebuilt;
        Ok(())
    }

    fn mechanism_cost(&mut self, line: &Line) -> Result<(), SpecError> {
        let mech = self
            .mechanism
            .as_mut()
            .ok_or_else(|| structure(line.number, "cost= outside a mechanism section".into()))?;
        let attr = line.keyword();
        let rebuilt = if attr.args.is_empty() {
            let m = money(line.number, word(line.number, attr)?)?;
            mech.clone().with_fixed_cost(m)
        } else {
            let param = attr.args[0].clone();
            let values = attr
                .value
                .bracket_items()
                .iter()
                .map(|s| money(line.number, s))
                .collect::<Result<Vec<_>, _>>()?;
            mech.clone().with_cost_table(param, values)
        };
        *mech = rebuilt;
        Ok(())
    }

    fn mechanism_effect(&mut self, line: &Line, kind: EffectKind) -> Result<(), SpecError> {
        let mech = self.mechanism.as_mut().ok_or_else(|| {
            structure(line.number, format!("{kind}= outside a mechanism section"))
        })?;
        let attr = line.keyword();
        let effect = if attr.args.is_empty() {
            // e.g. `loss_window=checkpoint_interval`: value is a parameter
            // name.
            EffectValue::Param(word(line.number, attr)?.into())
        } else {
            let param = attr.args[0].clone();
            let values = attr
                .value
                .bracket_items()
                .iter()
                .map(|s| duration(line.number, s))
                .collect::<Result<Vec<_>, _>>()?;
            EffectValue::Table {
                param: param.into(),
                values,
            }
        };
        let rebuilt = mech.clone().with_effect(kind, effect);
        *mech = rebuilt;
        Ok(())
    }

    fn start_resource(&mut self, line: &Line) -> Result<(), SpecError> {
        self.flush();
        let name = word(line.number, line.keyword())?;
        let reconfig = duration_attr(line, "reconfig_time")?;
        self.resource = Some(ResourceType::new(name, reconfig));
        Ok(())
    }

    fn resource_slot(&mut self, line: &Line) -> Result<(), SpecError> {
        let resource = self.resource.as_mut().ok_or_else(|| {
            structure(
                line.number,
                "resource component outside a resource declaration".into(),
            )
        })?;
        let component = word(line.number, line.keyword())?.to_owned();
        let depend_attr = line
            .attr("depend")
            .ok_or_else(|| structure(line.number, "resource component is missing depend".into()))?;
        let depend = match word(line.number, depend_attr)? {
            "null" => None,
            other => Some(other.into()),
        };
        let startup = duration_attr(line, "startup")?;
        let rebuilt = resource
            .clone()
            .with_component(ResourceComponent::new(component, depend, startup));
        *resource = rebuilt;
        Ok(())
    }
}

fn apply_component_cost(
    c: ComponentType,
    number: usize,
    attr: &Attr,
) -> Result<ComponentType, SpecError> {
    if attr.args.is_empty() {
        let m = money(number, word(number, attr)?)?;
        Ok(c.with_cost(m))
    } else {
        // cost([inactive,active])=[a b]
        let items = attr.value.bracket_items();
        if items.len() != 2 {
            return Err(value_err(
                number,
                "per-mode cost needs exactly two values [inactive active]",
            ));
        }
        let inactive = money(number, &items[0])?;
        let active = money(number, &items[1])?;
        Ok(c.with_costs(inactive, active))
    }
}

/// The most values a geometric range may enumerate. The search walks the
/// cross product of every parameter's values, so a spec like
/// `[1s-36500d;*1.0001]` (hundreds of thousands of settings in one knob)
/// is a state-space bomb; reject it at parse time with the arithmetic
/// spelled out instead of letting the sweep absorb it.
pub const MAX_GEOMETRIC_RANGE_VALUES: usize = 10_000;

/// Parses `[bronze,silver,gold]` or `[1m-24h;*1.05]`.
pub(crate) fn parse_param_range(number: usize, body: &str) -> Result<ParamRange, SpecError> {
    if let Some((span, step)) = body.split_once(';') {
        let (lo, hi) = span
            .split_once('-')
            .ok_or_else(|| value_err(number, "geometric range must look like [min-max;*factor]"))?;
        let factor_str = step
            .trim()
            .strip_prefix('*')
            .ok_or_else(|| value_err(number, "geometric range step must look like *factor"))?;
        let factor: f64 = factor_str
            .parse()
            .map_err(|_| value_err(number, "geometric range factor must be a number"))?;
        if !factor.is_finite() || factor <= 1.0 {
            return Err(value_err(number, "geometric range factor must exceed 1"));
        }
        let min = duration(number, lo.trim())?;
        let max = duration(number, hi.trim())?;
        if min.seconds() <= 0.0 {
            return Err(value_err(number, "geometric range min must be positive"));
        }
        if max < min {
            return Err(value_err(number, "geometric range needs min <= max"));
        }
        let count = (max.seconds() / min.seconds()).ln() / factor.ln() + 1.0;
        if count > MAX_GEOMETRIC_RANGE_VALUES as f64 {
            return Err(value_err(
                number,
                &format!(
                    "geometric range enumerates ~{count:.0} values \
                     (cap {MAX_GEOMETRIC_RANGE_VALUES}); raise the factor or narrow the span"
                ),
            ));
        }
        Ok(ParamRange::GeometricDuration { min, max, factor })
    } else {
        let levels: Vec<std::sync::Arc<str>> = body
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|s| !s.is_empty())
            .map(Into::into)
            .collect();
        if levels.is_empty() {
            return Err(value_err(number, "parameter range must not be empty"));
        }
        Ok(ParamRange::Levels(levels))
    }
}

pub(crate) fn word(number: usize, attr: &Attr) -> Result<&str, SpecError> {
    attr.value.as_word().ok_or_else(|| {
        value_err(
            number,
            &format!("attribute {} expects a bare word value", attr.name),
        )
    })
}

pub(crate) fn duration(number: usize, s: &str) -> Result<Duration, SpecError> {
    s.parse()
        .map_err(|e: aved_units::ParseDurationError| value_err(number, &e.to_string()))
}

pub(crate) fn duration_attr(line: &Line, name: &str) -> Result<Duration, SpecError> {
    let attr = line
        .attr(name)
        .ok_or_else(|| structure(line.number, format!("missing required attribute {name}")))?;
    duration(line.number, word(line.number, attr)?)
}

fn duration_spec(number: usize, attr: &Attr) -> Result<DurationSpec, SpecError> {
    match &attr.value {
        Value::Ref(m) => Ok(DurationSpec::FromMechanism(m.as_str().into())),
        Value::Word(w) => Ok(DurationSpec::Fixed(duration(number, w)?)),
        Value::Bracket(_) => Err(value_err(
            number,
            &format!("attribute {} expects a duration or <mechanism>", attr.name),
        )),
    }
}

fn money(number: usize, s: &str) -> Result<Money, SpecError> {
    let v: f64 = s
        .parse()
        .map_err(|_| value_err(number, &format!("{s:?} is not a monetary amount")))?;
    Ok(Money::from_dollars(v))
}

pub(crate) fn value_err(number: usize, msg: &str) -> SpecError {
    SpecError::new(number, SpecErrorKind::Value(msg.to_owned()))
}

pub(crate) fn structure(number: usize, msg: String) -> SpecError {
    SpecError::new(number, SpecErrorKind::Structure(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
\\\\ Units - s:seconds, m:minutes, h:hours, d:days
component=machineA cost([inactive,active])=[2400 2640]
  failure=hard mtbf=650d mttr=<maintenanceA> detect_time=2m
  failure=soft mtbf=75d mttr=0 detect_time=0
component=linux cost=0
  failure=soft mtbf=60d mttr=0 detect_time=0
component=webserver cost=0
  failure=soft mtbf=60d mttr=0 detect_time=0
mechanism=maintenanceA
  param=level range=[bronze,silver,gold,platinum]
  cost(level)=[380 580 760 1500]
  mttr(level)=[38h 15h 8h 6h]
resource=rA reconfig_time=0
  component=machineA depend=null startup=30s
  component=linux depend=machineA startup=2m
  component=webserver depend=linux startup=30s
";

    #[test]
    fn parses_components() {
        let i = parse_infrastructure(SMALL).unwrap();
        let machine = i.component("machineA").unwrap();
        assert_eq!(machine.cost_inactive(), Money::from_dollars(2400.0));
        assert_eq!(machine.cost_active(), Money::from_dollars(2640.0));
        assert_eq!(machine.failure_modes().len(), 2);
        let hard = &machine.failure_modes()[0];
        assert_eq!(hard.name(), "hard");
        assert_eq!(hard.mtbf(), Some(Duration::from_days(650.0)));
        assert_eq!(
            hard.repair().mechanism().map(AsRef::as_ref),
            Some("maintenanceA")
        );
        assert_eq!(hard.detect_time(), Duration::from_mins(2.0));
        let soft = &machine.failure_modes()[1];
        assert_eq!(soft.repair().as_fixed(), Some(Duration::ZERO));
    }

    #[test]
    fn parses_mechanism() {
        let i = parse_infrastructure(SMALL).unwrap();
        let m = i.mechanism("maintenanceA").unwrap();
        assert_eq!(m.params().len(), 1);
        let p = m.param("level").unwrap();
        assert_eq!(p.range().len(), 4);
        assert!(m.effect(EffectKind::Mttr).is_some());
    }

    #[test]
    fn parses_resource_with_dependencies() {
        let i = parse_infrastructure(SMALL).unwrap();
        let r = i.resource("rA").unwrap();
        assert_eq!(r.components().len(), 3);
        assert_eq!(r.reconfig_time(), Duration::ZERO);
        assert_eq!(r.components()[0].depends_on(), None);
        assert_eq!(
            r.components()[1].depends_on().map(AsRef::as_ref),
            Some("machineA")
        );
        assert_eq!(r.full_startup_time(), Duration::from_mins(3.0));
    }

    #[test]
    fn checkpoint_mechanism_round_trip() {
        let text = "\
component=mpi cost=0 loss_window=<checkpoint>
  failure=soft mtbf=60d mttr=0 detect_time=0
mechanism=checkpoint
  param=storage_location range=[central,peer]
  param=checkpoint_interval range=[1m-24h;*1.05]
  cost=0
  loss_window=checkpoint_interval
";
        let i = parse_infrastructure(text).unwrap();
        let mpi = i.component("mpi").unwrap();
        assert_eq!(
            mpi.loss_window()
                .and_then(DurationSpec::mechanism)
                .map(AsRef::as_ref),
            Some("checkpoint")
        );
        let c = i.mechanism("checkpoint").unwrap();
        assert_eq!(c.params().len(), 2);
        assert!(matches!(
            c.param("checkpoint_interval").unwrap().range(),
            ParamRange::GeometricDuration { .. }
        ));
        assert!(matches!(
            c.effect(EffectKind::LossWindow),
            Some(EffectValue::Param(p)) if p.as_str() == "checkpoint_interval"
        ));
    }

    #[test]
    fn dangling_mechanism_reference_fails_validation() {
        let text = "\
component=machineA cost=0
  failure=hard mtbf=650d mttr=<ghost> detect_time=2m
";
        let err = parse_infrastructure(text).unwrap_err();
        assert!(matches!(err.kind(), SpecErrorKind::Model(_)));
    }

    #[test]
    fn failure_outside_component_is_error() {
        let err = parse_infrastructure("failure=hard mtbf=1d mttr=0 detect_time=0\n").unwrap_err();
        assert_eq!(err.line(), 1);
        assert!(matches!(err.kind(), SpecErrorKind::Structure(_)));
    }

    #[test]
    fn param_outside_mechanism_is_error() {
        let err = parse_infrastructure("param=level range=[a,b]\n").unwrap_err();
        assert!(matches!(err.kind(), SpecErrorKind::Structure(_)));
    }

    #[test]
    fn bad_duration_is_reported_with_line() {
        let text = "component=x cost=0\n  failure=soft mtbf=60q mttr=0 detect_time=0\n";
        let err = parse_infrastructure(text).unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn bad_geometric_factor_is_error() {
        let err = parse_param_range(1, "1m-24h;*0.9").unwrap_err();
        assert!(matches!(err.kind(), SpecErrorKind::Value(_)));
        assert!(parse_param_range(1, "1m-24h;+5").is_err());
        assert!(parse_param_range(1, "1m;*1.05").is_err());
        assert!(parse_param_range(1, "1m-24h;*inf").is_err());
    }

    #[test]
    fn degenerate_geometric_bounds_are_errors() {
        let zero_min = parse_param_range(1, "0s-24h;*1.05").unwrap_err();
        assert!(zero_min.to_string().contains("positive"), "{zero_min}");
        let inverted = parse_param_range(1, "24h-1m;*1.05").unwrap_err();
        assert!(inverted.to_string().contains("min <= max"), "{inverted}");
    }

    #[test]
    fn state_space_bomb_ranges_are_capped_at_parse_time() {
        // ~220k values: fine-grained factor over a ten-decade span.
        let err = parse_param_range(1, "1s-36500d;*1.0001").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("cap 10000"), "{msg}");
        // The paper's own range (~150 values) stays well under the cap.
        assert!(parse_param_range(1, "1m-24h;*1.05").is_ok());
    }

    #[test]
    fn max_instances_parses() {
        let text =
            "component=db cost=0 max_instances=2\n  failure=soft mtbf=60d mttr=0 detect_time=0\n";
        let i = parse_infrastructure(text).unwrap();
        assert_eq!(i.component("db").unwrap().max_instances(), Some(2));
    }

    #[test]
    fn per_mode_cost_needs_two_values() {
        let err =
            parse_infrastructure("component=x cost([inactive,active])=[1 2 3]\n").unwrap_err();
        assert!(matches!(err.kind(), SpecErrorKind::Value(_)));
    }
}
