//! Adversarial inputs for the specification parser: random byte soup,
//! recombined spec fragments, truncated documents, state-space-bomb
//! ranges and cyclic references. The property under test is always the
//! same — the parser returns a bounded, structured [`SpecError`]; it
//! never panics and never hangs.

use aved_spec::{
    lex_document, parse_infrastructure, parse_requirement, parse_service, parse_services,
    SpecErrorKind, MAX_GEOMETRIC_RANGE_VALUES,
};
use proptest::prelude::*;

/// Every entry point must accept arbitrary text without panicking; the
/// Ok/Err outcome itself is unconstrained.
fn parses_without_panicking(text: &str) {
    let _ = lex_document(text);
    let _ = parse_infrastructure(text);
    let _ = parse_service(text);
    let _ = parse_services(text);
    let _ = parse_requirement(text);
}

/// Fragments of real spec syntax; random recombinations reach far deeper
/// into the parsers than uniform byte soup does.
const FRAGMENTS: &[&str] = &[
    "component=machineA",
    "cost([inactive,active])=[2400 2640]",
    "cost=0",
    "failure=hard",
    "mtbf=650d",
    "mtbf=<maintenanceA>",
    "mttr=<maintenanceA>",
    "mttr=0",
    "detect_time=2m",
    "mechanism=maintenanceA",
    "param=level",
    "range=[bronze,silver,gold,platinum]",
    "range=[1m-24h;*1.05]",
    "range=[1s-36500d;*1.0001]",
    "range=[0s-24h;*1.05]",
    "range=[]",
    "cost(level)=[380 580 760 1500]",
    "mttr(level)=[38h 15h 8h 6h]",
    "loss_window=checkpoint_interval",
    "resource=rA",
    "reconfig_time=0",
    "component=linux depend=machineA startup=2m",
    "depend=null",
    "depend=rA",
    "startup=30s",
    "application=shop",
    "jobsize=10000",
    "tier=web",
    "sizing=static",
    "failurescope=tier",
    "nActive=[1-1000,+1]",
    "performance(nActive)=perfC.dat",
    "performance=400",
    "mperformance(storage_location,checkpoint_interval,nActive)=mperfH.dat",
    "requirement=shop",
    "throughput=400",
    "maxAnnualDowntime=100m",
    "maxExecutionTime=20h",
    "=",
    "==",
    "[",
    "]",
    "<",
    ">",
    ";",
    "*",
    "-",
    "\\\\ comment",
];

const SEPARATORS: &[&str] = &[" ", "  ", "\n", "\n  ", "\t", ""];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Uniform soup of printable text plus structure characters.
    #[test]
    fn random_text_never_panics(text in ".{0,200}") {
        parses_without_panicking(&text);
    }

    /// Valid tokens in invalid orders: sections opened twice, attributes
    /// out of context, unterminated brackets mid-document.
    #[test]
    fn recombined_fragments_never_panic(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0usize..SEPARATORS.len()), 0..40),
    ) {
        let mut doc = String::new();
        for (frag, sep) in picks {
            doc.push_str(FRAGMENTS[frag]);
            doc.push_str(SEPARATORS[sep]);
        }
        parses_without_panicking(&doc);
    }

    /// Random mutilation of a known-good document: overwrite a window
    /// with garbage and reparse.
    #[test]
    fn mutated_bundled_spec_never_panics(
        offset in 0usize..3000,
        garbage in ".{1,40}",
    ) {
        let base = include_str!("../../../data/infrastructure.aved");
        let cut = floor_char_boundary(base, offset.min(base.len()));
        let mut doc = String::new();
        doc.push_str(&base[..cut]);
        doc.push_str(&garbage);
        let rest = floor_char_boundary(base, (cut + garbage.len()).min(base.len()));
        doc.push_str(&base[rest..]);
        parses_without_panicking(&doc);
    }
}

/// Largest byte index `<= i` that lands on a char boundary.
fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// Every prefix of the bundled models — a truncated download or a spec
/// cut off mid-write — parses to a clean result, and the full documents
/// still parse.
#[test]
fn truncated_bundled_specs_error_cleanly() {
    type FullParse = fn(&str) -> bool;
    let specs: &[(&str, FullParse)] = &[
        (include_str!("../../../data/infrastructure.aved"), |t| {
            parse_infrastructure(t).is_ok()
        }),
        (include_str!("../../../data/ecommerce.aved"), |t| {
            parse_service(t).is_ok()
        }),
        (include_str!("../../../data/scientific.aved"), |t| {
            parse_service(t).is_ok()
        }),
    ];
    for (text, parses) in specs {
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            // Must not panic; truncation may or may not be an error
            // (cutting at a line boundary can leave a valid document).
            parses_without_panicking(&text[..cut]);
        }
        assert!(parses(text), "the untruncated document must still parse");
    }
}

/// A spec whose one geometric range would enumerate hundreds of
/// thousands of values is rejected at parse time with the cardinality
/// spelled out, instead of detonating in the search.
#[test]
fn state_space_bomb_range_is_rejected_at_parse_time() {
    let text = "\
component=mpi cost=0 loss_window=<checkpoint>
  failure=soft mtbf=60d mttr=0 detect_time=0
mechanism=checkpoint
  param=checkpoint_interval range=[1s-36500d;*1.0001]
  cost=0
  loss_window=checkpoint_interval
";
    let err = parse_infrastructure(text).unwrap_err();
    assert_eq!(err.line(), 4);
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("cap {MAX_GEOMETRIC_RANGE_VALUES}")),
        "the cap should be named: {msg}"
    );
    assert!(matches!(err.kind(), SpecErrorKind::Value(_)));
}

/// A throughput that is not a finite number is a value error, not a
/// panic in the requirement's constructor.
#[test]
fn non_finite_throughput_is_a_value_error() {
    for throughput in ["nan", "NaN", "inf", "-inf"] {
        let text = format!("requirement=enterprise throughput={throughput} downtime=100m\n");
        let err = parse_requirement(&text).unwrap_err();
        assert!(
            matches!(err.kind(), SpecErrorKind::Value(_)),
            "{throughput}: {err}"
        );
    }
}

/// Zero-minimum geometric ranges (`0 * factor = 0` never advances) are
/// rejected before they can hang enumeration.
#[test]
fn zero_min_geometric_range_is_rejected() {
    let text = "\
mechanism=checkpoint
  param=checkpoint_interval range=[0s-24h;*1.05]
  cost=0
";
    let err = parse_infrastructure(text).unwrap_err();
    assert!(err.to_string().contains("positive"), "{err}");
}

/// Cyclic and self-referential component dependencies inside a resource
/// fail validation with a structured model error, not a hang or panic.
#[test]
fn cyclic_dependency_refs_error_cleanly() {
    let cyclic = "\
component=a cost=0
  failure=soft mtbf=60d mttr=0 detect_time=0
component=b cost=0
  failure=soft mtbf=60d mttr=0 detect_time=0
resource=rX reconfig_time=0
  component=a depend=b startup=30s
  component=b depend=a startup=30s
";
    let err = parse_infrastructure(cyclic).unwrap_err();
    assert!(matches!(err.kind(), SpecErrorKind::Model(_)), "{err}");

    let self_dep = "\
component=a cost=0
  failure=soft mtbf=60d mttr=0 detect_time=0
resource=rX reconfig_time=0
  component=a depend=a startup=30s
";
    let err = parse_infrastructure(self_dep).unwrap_err();
    assert!(matches!(err.kind(), SpecErrorKind::Model(_)), "{err}");
}
