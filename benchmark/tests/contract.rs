//! Holds the binary's output against `BENCHMARK.json`: a `--quick` run of
//! every workload, traced and untraced, must print exactly the contracted
//! keys, metric names and units, and report every check as passed.

use std::collections::BTreeMap;
use std::process::Command;

use calu_obs::JsonValue;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn entries<'a>(doc: &'a JsonValue, section: &str) -> &'a [JsonValue] {
    doc.get(section).and_then(JsonValue::as_array).unwrap_or_else(|| panic!("no {section}"))
}

fn text<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("no {key} in {entry:?}"))
}

/// `name -> unit` of one section of the contract.
fn contracted(doc: &JsonValue, section: &str) -> BTreeMap<String, String> {
    entries(doc, section)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn quick_runs_print_the_contracted_names() {
    let contract = JsonValue::parse(CONTRACT).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> =
        entries(&contract, "workloads").iter().map(|w| text(w, "name")).collect();
    assert_eq!(workloads.len(), 4);
    assert!(workloads.iter().all(|w| well_formed(w)));

    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let want = contracted(&contract, section);
            assert!(want.keys().all(|name| well_formed(name)), "{section} names");
            let out = Command::new(env!("CARGO_BIN_EXE_calu-benchmark"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("the benchmark binary runs");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            assert!(out.status.success(), "{workload} trace {trace} failed:\n{stdout}");

            let last = stdout.lines().last().expect("a result line");
            let result = JsonValue::parse(last).expect("the last line is JSON");
            let keys: Vec<&str> =
                result.as_object().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));

            let metrics = result.get("metrics").and_then(JsonValue::as_object).expect("metrics");
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| (name.clone(), text(m, "unit").to_string()))
                .collect();
            assert_eq!(got, want, "{workload} trace {trace}");
            for (name, m) in metrics {
                let value = m.get("value").and_then(JsonValue::as_f64).expect("a value");
                assert!(value.is_finite(), "{name} = {value}");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{name} = {value}");
                }
            }
        }
    }
}
