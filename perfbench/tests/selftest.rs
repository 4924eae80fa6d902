//! Self-test of the benchmark: every workload runs at a tiny size, untraced and traced, and
//! must pass every output check and print every metric `BENCHMARK.json` names, with its unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A JSON value, as far as this test needs one.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.at, p.bytes.len(), "trailing characters in {text}");
        value
    }

    fn ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.bytes[self.at], b,
            "expected {:?} at {}",
            b as char, self.at
        );
        self.at += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.bytes[self.at] {
            b'{' => {
                self.eat(b'{');
                let mut map = BTreeMap::new();
                self.ws();
                if self.bytes[self.at] == b'}' {
                    self.at += 1;
                    return Json::Obj(map);
                }
                loop {
                    self.ws();
                    let key = match self.value() {
                        Json::Str(s) => s,
                        other => panic!("object key {other:?}"),
                    };
                    self.eat(b':');
                    let value = self.value();
                    assert!(
                        map.insert(key.clone(), value).is_none(),
                        "duplicate key {key}"
                    );
                    self.ws();
                    if self.bytes[self.at] == b',' {
                        self.at += 1;
                    } else {
                        self.eat(b'}');
                        return Json::Obj(map);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                self.ws();
                if self.bytes[self.at] == b']' {
                    self.at += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    if self.bytes[self.at] == b',' {
                        self.at += 1;
                    } else {
                        self.eat(b']');
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.at += 1;
                let start = self.at;
                while self.bytes[self.at] != b'"' {
                    assert_ne!(self.bytes[self.at], b'\\', "escapes are not expected");
                    self.at += 1;
                }
                self.at += 1;
                Json::Str(String::from_utf8(self.bytes[start..self.at - 1].to_vec()).unwrap())
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
}

/// Runs one workload at the tiny size and returns its result line, parsed.
fn run(workload: &str, trace: u8) -> Json {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_shp-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let bench = benchmark_json();
    for workload in bench.get("workloads").arr() {
        let name = workload.get("name").str();
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let result = run(name, trace);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name}: {result:?}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{name}: {result:?}");
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let printed = result.get("metrics");
            for wanted in bench.get(list).arr() {
                let metric = wanted.get("name").str();
                let got = printed.get(metric);
                assert!(
                    matches!(got.get("value"), Json::Num(v) if v.is_finite()),
                    "{name} --trace {trace}: {metric} missing or not a number: {got:?}"
                );
                assert_eq!(
                    got.get("unit").str(),
                    wanted.get("unit").str(),
                    "{name}: unit of {metric}"
                );
            }
        }
    }
}
