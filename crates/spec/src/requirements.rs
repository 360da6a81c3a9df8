//! Parsing service requirements in the attribute-value syntax.
//!
//! The paper describes requirements textually; for tooling (the `aved`
//! CLI, batch sweeps) we give them the same syntax as the other models:
//!
//! ```text
//! requirement=enterprise throughput=1000 downtime=100m
//! requirement=job execution_time=20h
//! ```

use aved_model::ServiceRequirement;

use crate::infra::{duration_attr, structure, word};
use crate::{SpecError, SpecErrorKind};

/// Parses a single-requirement document.
///
/// # Errors
///
/// Returns [`SpecError`] for syntax errors, unknown requirement kinds, or
/// missing attributes.
///
/// # Examples
///
/// ```
/// let req = aved_spec::parse_requirement(
///     "requirement=enterprise throughput=1000 downtime=100m",
/// )?;
/// assert_eq!(req.min_throughput(), Some(1000.0));
/// # Ok::<(), aved_spec::SpecError>(())
/// ```
pub fn parse_requirement(text: &str) -> Result<ServiceRequirement, SpecError> {
    let lines = crate::lex_document(text)?;
    let [line] = lines.as_slice() else {
        return Err(SpecError::new(
            0,
            SpecErrorKind::Structure(format!(
                "expected exactly one requirement line, found {}",
                lines.len()
            )),
        ));
    };
    if line.keyword().name != "requirement" {
        return Err(structure(
            line.number,
            format!("expected requirement=..., found {}=", line.keyword().name),
        ));
    }
    match word(line.number, line.keyword())? {
        "enterprise" => {
            let throughput_attr = line.attr("throughput").ok_or_else(|| {
                structure(
                    line.number,
                    "enterprise requirement needs throughput=".into(),
                )
            })?;
            let throughput: f64 = word(line.number, throughput_attr)?.parse().map_err(|_| {
                SpecError::new(
                    line.number,
                    SpecErrorKind::Value("throughput must be a number".into()),
                )
            })?;
            if !(throughput.is_finite() && throughput > 0.0) {
                return Err(SpecError::new(
                    line.number,
                    SpecErrorKind::Value("throughput must be positive and finite".into()),
                ));
            }
            let downtime = duration_attr(line, "downtime")?;
            Ok(ServiceRequirement::enterprise(throughput, downtime))
        }
        "job" => {
            let t = duration_attr(line, "execution_time")?;
            if t.is_zero() {
                return Err(SpecError::new(
                    line.number,
                    SpecErrorKind::Value("execution_time must be positive".into()),
                ));
            }
            Ok(ServiceRequirement::job(t))
        }
        other => Err(structure(
            line.number,
            format!("unknown requirement kind {other:?} (expected enterprise or job)"),
        )),
    }
}

/// Renders a requirement in the same syntax.
#[must_use]
pub fn write_requirement(req: &ServiceRequirement) -> String {
    match req {
        ServiceRequirement::Enterprise {
            min_throughput,
            max_annual_downtime,
        } => format!(
            "requirement=enterprise throughput={min_throughput} downtime={max_annual_downtime}\n"
        ),
        ServiceRequirement::Job { max_execution_time } => {
            format!("requirement=job execution_time={max_execution_time}\n")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aved_units::Duration;

    #[test]
    fn parses_enterprise() {
        let r = parse_requirement("requirement=enterprise throughput=1000 downtime=100m").unwrap();
        assert_eq!(r.min_throughput(), Some(1000.0));
        assert_eq!(r.max_annual_downtime(), Some(Duration::from_mins(100.0)));
    }

    #[test]
    fn parses_job() {
        let r = parse_requirement("requirement=job execution_time=20h").unwrap();
        assert_eq!(r.max_execution_time(), Some(Duration::from_hours(20.0)));
    }

    #[test]
    fn round_trips() {
        for req in [
            aved_model::ServiceRequirement::enterprise(400.0, Duration::from_mins(10.0)),
            aved_model::ServiceRequirement::job(Duration::from_hours(100.0)),
        ] {
            let text = write_requirement(&req);
            assert_eq!(parse_requirement(&text).unwrap(), req, "text: {text}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(parse_requirement("").is_err());
        assert!(parse_requirement("requirement=slo latency=5m").is_err());
        assert!(parse_requirement("requirement=enterprise downtime=100m").is_err());
        assert!(parse_requirement("requirement=enterprise throughput=abc downtime=100m").is_err());
        assert!(parse_requirement("requirement=enterprise throughput=-5 downtime=100m").is_err());
        assert!(parse_requirement("requirement=job").is_err());
        assert!(parse_requirement("requirement=job execution_time=0").is_err());
        assert!(parse_requirement("component=x cost=0").is_err());
        // Two lines is also an error.
        assert!(parse_requirement(
            "requirement=job execution_time=1h\nrequirement=job execution_time=2h"
        )
        .is_err());
    }
}
