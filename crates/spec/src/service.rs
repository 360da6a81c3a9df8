//! Parser for service model documents (paper Figs. 4 and 5).

use aved_model::{
    FailureScope, MechanismUse, NActiveSpec, PerfRef, ResourceOption, Service, Sizing, Tier,
};

use crate::infra::{structure, value_err, word};
use crate::{Line, SpecError};

/// Parses a document containing one or more `application=` sections.
///
/// # Errors
///
/// Returns [`SpecError`] on syntax errors, unknown attribute values
/// (`sizing=sometimes`), structurally misplaced attributes, an application
/// with no tiers, or a tier with no resource options.
pub fn parse_services(text: &str) -> Result<Vec<Service>, SpecError> {
    let lines = crate::lex_document(text)?;
    let mut parser = ServiceParser::default();
    for line in &lines {
        parser.line(line)?;
    }
    parser.finish()
}

#[derive(Default)]
struct ServiceParser {
    done: Vec<Service>,
    service: Option<Service>,
    /// Line of the open `application=` (for errors naming it).
    service_line: usize,
    tier: Option<Tier>,
    /// Line of the open `tier=`.
    tier_line: usize,
    option: Option<OptionBuilder>,
}

struct OptionBuilder {
    line: usize,
    resource: String,
    sizing: Sizing,
    failure_scope: FailureScope,
    n_active: Option<NActiveSpec>,
    performance: Option<PerfRef>,
    mechanisms: Vec<MechanismUse>,
}

impl OptionBuilder {
    fn build(self) -> Result<ResourceOption, SpecError> {
        let n_active = self.n_active.ok_or_else(|| {
            structure(
                self.line,
                format!("resource option {} is missing nActive", self.resource),
            )
        })?;
        let performance = self.performance.ok_or_else(|| {
            structure(
                self.line,
                format!("resource option {} is missing performance", self.resource),
            )
        })?;
        let mut opt = ResourceOption::new(
            self.resource,
            self.sizing,
            self.failure_scope,
            n_active,
            performance,
        );
        for m in self.mechanisms {
            opt = opt.with_mechanism(m);
        }
        Ok(opt)
    }
}

impl ServiceParser {
    fn line(&mut self, line: &Line) -> Result<(), SpecError> {
        match line.keyword().name.as_str() {
            "application" => self.start_application(line),
            "tier" => self.start_tier(line),
            "resource" => self.start_option(line),
            "nActive" | "nactive" => self.option_attrs(line),
            "performance" => self.option_attrs(line),
            "mechanism" => self.option_mechanism(line),
            other => Err(structure(
                line.number,
                format!("unexpected attribute {other} in service model"),
            )),
        }
    }

    fn finish(mut self) -> Result<Vec<Service>, SpecError> {
        self.flush_service()?;
        Ok(self.done)
    }

    fn flush_option(&mut self) -> Result<(), SpecError> {
        if let Some(ob) = self.option.take() {
            let line = ob.line;
            let opt = ob.build()?;
            let tier = self
                .tier
                .take()
                .ok_or_else(|| structure(line, "resource option outside a tier".into()))?;
            self.tier = Some(tier.with_option(opt));
        }
        Ok(())
    }

    fn flush_tier(&mut self) -> Result<(), SpecError> {
        self.flush_option()?;
        if let Some(t) = self.tier.take() {
            if t.options().is_empty() {
                return Err(structure(
                    self.tier_line,
                    format!("tier {} has no resource options", t.name().as_str()),
                ));
            }
            let svc = self.service.take().ok_or_else(|| {
                structure(
                    0,
                    format!("tier {} has no enclosing application", t.name().as_str()),
                )
            })?;
            self.service = Some(svc.with_tier(t));
        }
        Ok(())
    }

    fn flush_service(&mut self) -> Result<(), SpecError> {
        self.flush_tier()?;
        if let Some(s) = self.service.take() {
            if s.tiers().is_empty() {
                return Err(structure(
                    self.service_line,
                    format!("application {} has no tiers", s.name()),
                ));
            }
            self.done.push(s);
        }
        Ok(())
    }

    fn start_application(&mut self, line: &Line) -> Result<(), SpecError> {
        self.flush_service()?;
        let name = word(line.number, line.keyword())?;
        let mut svc = Service::new(name);
        if let Some(js) = line.attr("jobsize") {
            let size: f64 = word(line.number, js)?
                .parse()
                .map_err(|_| value_err(line.number, "jobsize must be a number"))?;
            if size <= 0.0 {
                return Err(value_err(line.number, "jobsize must be positive"));
            }
            svc = svc.with_job_size(size);
        }
        self.service = Some(svc);
        self.service_line = line.number;
        Ok(())
    }

    fn start_tier(&mut self, line: &Line) -> Result<(), SpecError> {
        if self.service.is_none() {
            return Err(structure(
                line.number,
                "tier= outside an application".into(),
            ));
        }
        self.flush_tier()?;
        let name = word(line.number, line.keyword())?;
        self.tier = Some(Tier::new(name));
        self.tier_line = line.number;
        Ok(())
    }

    fn start_option(&mut self, line: &Line) -> Result<(), SpecError> {
        if self.tier.is_none() {
            return Err(structure(line.number, "resource= outside a tier".into()));
        }
        self.flush_option()?;
        let resource = word(line.number, line.keyword())?.to_owned();
        let sizing = match line.attr("sizing") {
            Some(a) => match word(line.number, a)? {
                "static" => Sizing::Static,
                "dynamic" => Sizing::Dynamic,
                other => {
                    return Err(value_err(
                        line.number,
                        &format!("sizing must be static or dynamic, got {other}"),
                    ))
                }
            },
            None => {
                return Err(structure(
                    line.number,
                    "resource option missing sizing".into(),
                ))
            }
        };
        let failure_scope = match line.attr("failurescope") {
            Some(a) => match word(line.number, a)? {
                "resource" => FailureScope::Resource,
                "tier" => FailureScope::Tier,
                other => {
                    return Err(value_err(
                        line.number,
                        &format!("failurescope must be resource or tier, got {other}"),
                    ))
                }
            },
            None => {
                return Err(structure(
                    line.number,
                    "resource option missing failurescope".into(),
                ))
            }
        };
        self.option = Some(OptionBuilder {
            line: line.number,
            resource,
            sizing,
            failure_scope,
            n_active: None,
            performance: None,
            mechanisms: Vec::new(),
        });
        // nActive/performance may share the resource line.
        self.apply_option_attrs(line)
    }

    fn option_attrs(&mut self, line: &Line) -> Result<(), SpecError> {
        if self.option.is_none() {
            return Err(structure(
                line.number,
                format!("{}= outside a resource option", line.keyword().name),
            ));
        }
        self.apply_option_attrs(line)
    }

    fn apply_option_attrs(&mut self, line: &Line) -> Result<(), SpecError> {
        let ob = self.option.as_mut().ok_or_else(|| {
            structure(
                line.number,
                format!("{}= outside a resource option", line.keyword().name),
            )
        })?;
        for attr in &line.attrs {
            match attr.name.as_str() {
                "nActive" | "nactive" => {
                    let body = attr.value.as_bracket().ok_or_else(|| {
                        value_err(line.number, "nActive must be a bracketed body")
                    })?;
                    ob.n_active = Some(parse_n_active(line.number, body)?);
                }
                "performance" => {
                    let w = word(line.number, attr)?;
                    ob.performance = Some(match w.parse::<f64>() {
                        Ok(v) if attr.args.is_empty() => PerfRef::Const(v),
                        _ => PerfRef::Named(w.to_owned()),
                    });
                }
                // attributes already consumed by start_option
                "resource" | "sizing" | "failurescope" => {}
                other => {
                    return Err(structure(
                        line.number,
                        format!("unexpected resource-option attribute {other}"),
                    ))
                }
            }
        }
        Ok(())
    }

    fn option_mechanism(&mut self, line: &Line) -> Result<(), SpecError> {
        let ob = self
            .option
            .as_mut()
            .ok_or_else(|| structure(line.number, "mechanism= outside a resource option".into()))?;
        let name = word(line.number, line.keyword())?.to_owned();
        let mperf = match line.attr("mperformance") {
            Some(a) => Some(word(line.number, a)?.to_owned()),
            None => None,
        };
        ob.mechanisms.push(MechanismUse::new(name, mperf));
        Ok(())
    }
}

/// Parses `1-1000,+1`, `1-1024,*2`, `1` or `1,2,4`.
fn parse_n_active(number: usize, body: &str) -> Result<NActiveSpec, SpecError> {
    let parts: Vec<&str> = body
        .split(|c: char| c == ',' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .collect();
    if parts.is_empty() {
        return Err(value_err(number, "nActive must not be empty"));
    }
    let parse_u32 = |s: &str| -> Result<u32, SpecError> {
        s.parse()
            .map_err(|_| value_err(number, &format!("{s:?} is not a resource count")))
    };
    let last = parts[parts.len() - 1];
    let step: Option<(char, u32)> = if let Some(rest) = last.strip_prefix('+') {
        Some(('+', parse_u32(rest)?))
    } else if let Some(rest) = last.strip_prefix('*') {
        Some(('*', parse_u32(rest)?))
    } else {
        None
    };
    let value_parts = if step.is_some() {
        &parts[..parts.len() - 1]
    } else {
        &parts[..]
    };
    // A span `min-max` or a list of explicit counts.
    if value_parts.len() == 1 && value_parts[0].contains('-') {
        let Some((lo, hi)) = value_parts[0].split_once('-') else {
            return Err(value_err(
                number,
                &format!("{:?} is not an nActive span", value_parts[0]),
            ));
        };
        let min = parse_u32(lo)?;
        let max = parse_u32(hi)?;
        if min == 0 || max < min {
            return Err(value_err(
                number,
                "nActive span must satisfy 1 <= min <= max",
            ));
        }
        Ok(match step {
            None | Some(('+', 1)) => NActiveSpec::Arithmetic { min, max, step: 1 },
            Some(('+', s)) => {
                if s == 0 {
                    return Err(value_err(number, "nActive step must be positive"));
                }
                NActiveSpec::Arithmetic { min, max, step: s }
            }
            Some(('*', f)) => {
                if f < 2 {
                    return Err(value_err(number, "nActive factor must be at least 2"));
                }
                NActiveSpec::Geometric {
                    min,
                    max,
                    factor: f,
                }
            }
            Some(_) => unreachable!("step prefix is + or *"),
        })
    } else {
        if step.is_some() {
            return Err(value_err(
                number,
                "nActive step requires a min-max span (e.g. [1-1000,+1])",
            ));
        }
        let list = value_parts
            .iter()
            .map(|s| parse_u32(s))
            .collect::<Result<Vec<_>, _>>()?;
        if list.contains(&0) {
            return Err(value_err(number, "nActive counts must be positive"));
        }
        Ok(NActiveSpec::List(list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ECOMMERCE: &str = "\
application=ecommerce
  tier=web
    resource=rA sizing=dynamic failurescope=resource
      nActive=[1-1000,+1] performance(nActive)=perfA.dat
    resource=rB sizing=dynamic failurescope=resource
      nActive=[1-1000,+1] performance(nActive)=perfB.dat
  tier=application
    resource=rC sizing=dynamic failurescope=resource
      nActive=[1-1000,+1] performance(nActive)=perfC.dat
    resource=rD sizing=dynamic failurescope=resource
      nActive=[1-1000,+1] performance(nActive)=perfD.dat
  tier=database
    resource=rG sizing=static failurescope=resource
      nActive=[1] performance=10000
";

    const SCIENTIFIC: &str = "\
application=scientific jobsize=10000
  tier=computation
    resource=rH sizing=static failurescope=tier
      nActive=[1-1000,+1] performance(nActive)=perfH.dat
      mechanism=checkpoint mperformance(storage_location,
        checkpoint_interval,nActive)=mperfH.dat
    resource=rI sizing=static failurescope=tier
      nActive=[1-1000,+1] performance(nActive)=perfI.dat
      mechanism=checkpoint mperformance(storage_location,
        checkpoint_interval,nActive)=mperfI.dat
";

    #[test]
    fn parses_ecommerce_structure() {
        let svc = crate::parse_service(ECOMMERCE).unwrap();
        assert_eq!(svc.name(), "ecommerce");
        assert_eq!(svc.job_size(), None);
        assert_eq!(svc.tiers().len(), 3);
        let web = svc.tier("web").unwrap();
        assert_eq!(web.options().len(), 2);
        let ra = web.option_for("rA").unwrap();
        assert_eq!(ra.sizing(), Sizing::Dynamic);
        assert_eq!(ra.failure_scope(), FailureScope::Resource);
        assert_eq!(
            ra.n_active(),
            &NActiveSpec::Arithmetic {
                min: 1,
                max: 1000,
                step: 1
            }
        );
        assert_eq!(ra.performance(), &PerfRef::Named("perfA.dat".into()));
        let db = svc.tier("database").unwrap().option_for("rG").unwrap();
        assert_eq!(db.n_active(), &NActiveSpec::List(vec![1]));
        assert_eq!(db.performance(), &PerfRef::Const(10_000.0));
    }

    #[test]
    fn parses_scientific_with_mechanisms() {
        let svc = crate::parse_service(SCIENTIFIC).unwrap();
        assert_eq!(svc.job_size(), Some(10_000.0));
        let comp = svc.tier("computation").unwrap();
        assert_eq!(comp.options().len(), 2);
        for (res, mperf) in [("rH", "mperfH.dat"), ("rI", "mperfI.dat")] {
            let opt = comp.option_for(res).unwrap();
            assert_eq!(opt.failure_scope(), FailureScope::Tier);
            assert_eq!(opt.mechanisms().len(), 1);
            let m = &opt.mechanisms()[0];
            assert_eq!(m.mechanism().as_str(), "checkpoint");
            assert_eq!(m.mperformance(), Some(mperf));
        }
    }

    #[test]
    fn parses_multiple_applications() {
        let both = format!("{ECOMMERCE}\n{SCIENTIFIC}");
        let services = parse_services(&both).unwrap();
        assert_eq!(services.len(), 2);
        assert_eq!(services[0].name(), "ecommerce");
        assert_eq!(services[1].name(), "scientific");
    }

    #[test]
    fn parse_service_rejects_multiple() {
        let both = format!("{ECOMMERCE}\n{SCIENTIFIC}");
        assert!(crate::parse_service(&both).is_err());
    }

    #[test]
    fn n_active_forms() {
        assert_eq!(
            parse_n_active(1, "1-1000,+1").unwrap(),
            NActiveSpec::Arithmetic {
                min: 1,
                max: 1000,
                step: 1
            }
        );
        assert_eq!(
            parse_n_active(1, "2-64,*2").unwrap(),
            NActiveSpec::Geometric {
                min: 2,
                max: 64,
                factor: 2
            }
        );
        assert_eq!(
            parse_n_active(1, "4-20,+4").unwrap(),
            NActiveSpec::Arithmetic {
                min: 4,
                max: 20,
                step: 4
            }
        );
        assert_eq!(parse_n_active(1, "1").unwrap(), NActiveSpec::List(vec![1]));
        assert_eq!(
            parse_n_active(1, "1,2,4").unwrap(),
            NActiveSpec::List(vec![1, 2, 4])
        );
    }

    #[test]
    fn n_active_rejects_bad_forms() {
        assert!(parse_n_active(1, "").is_err());
        assert!(parse_n_active(1, "0-5,+1").is_err());
        assert!(parse_n_active(1, "5-2,+1").is_err());
        assert!(parse_n_active(1, "1-10,*1").is_err());
        assert!(parse_n_active(1, "1-10,+0").is_err());
        assert!(parse_n_active(1, "1,+2").is_err());
        assert!(parse_n_active(1, "x").is_err());
        assert!(parse_n_active(1, "0").is_err());
    }

    #[test]
    fn tier_outside_application_is_error() {
        assert!(parse_services("tier=web\n").is_err());
    }

    #[test]
    fn resource_outside_tier_is_error() {
        assert!(parse_services(
            "application=x\nresource=rA sizing=dynamic failurescope=resource\n"
        )
        .is_err());
    }

    #[test]
    fn missing_sizing_is_error() {
        let err = parse_services(
            "application=x\ntier=t\nresource=rA failurescope=resource\nnActive=[1] performance=1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("sizing"));
    }

    #[test]
    fn missing_n_active_is_error() {
        let err = parse_services(
            "application=x\ntier=t\nresource=rA sizing=static failurescope=tier\nperformance=1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("nActive"));
    }

    #[test]
    fn bad_sizing_value_is_error() {
        let err = parse_services(
            "application=x\ntier=t\nresource=rA sizing=sometimes failurescope=tier\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("sometimes"));
    }

    #[test]
    fn application_without_tiers_is_error() {
        let err = parse_services("\\\\ no tiers yet\napplication=empty\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("application empty has no tiers"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        // A tier-less application is rejected even when another follows.
        let both = format!("application=empty\n{SCIENTIFIC}");
        assert!(parse_services(&both).is_err());
    }

    #[test]
    fn tier_without_resource_options_is_error() {
        let err = parse_services("application=x\n  tier=web\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("tier web has no resource options"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        // An empty tier followed by a full one is still an error.
        let err = parse_services(
            "application=x\ntier=web\ntier=db\nresource=rG sizing=static failurescope=resource\nnActive=[1] performance=1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("tier web"), "{err}");
    }

    #[test]
    fn negative_jobsize_is_error() {
        assert!(parse_services("application=x jobsize=-5\n").is_err());
        assert!(parse_services("application=x jobsize=abc\n").is_err());
    }

    #[test]
    fn numeric_performance_with_args_is_named() {
        // performance(nActive)=10000 would be a (weird) named table "10000";
        // the args make it a function reference, not a constant.
        let svc = crate::parse_service(
            "application=x\ntier=t\nresource=rA sizing=static failurescope=tier\nnActive=[1] performance(nActive)=10000\n",
        )
        .unwrap();
        let opt = svc.tier("t").unwrap().option_for("rA").unwrap();
        assert_eq!(opt.performance(), &PerfRef::Named("10000".into()));
    }
}
