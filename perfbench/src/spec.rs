//! Reads the metric declarations from `BENCHMARK.json` so a run can check
//! that it prints exactly the declared metrics with the declared units.

use std::collections::BTreeMap;

/// A parsed JSON value; numbers and literals are checked, not kept.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Scalar,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.pos)),
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            _ => self.scalar(),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let escaped = *self.bytes.get(self.pos).ok_or("dangling escape")?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".into())
    }

    fn scalar(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && !matches!(self.bytes[self.pos], b',' | b']' | b'}')
            && !self.bytes[self.pos].is_ascii_whitespace()
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if matches!(token, "null" | "true" | "false") || token.parse::<f64>().is_ok() {
            Ok(Json::Scalar)
        } else {
            Err(format!("bad token {token:?} at byte {start}"))
        }
    }
}

fn group(text: &str, group: &str) -> Result<Vec<Json>, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    match parser.value()?.get(group) {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err(format!("BENCHMARK.json has no \"{group}\" list")),
    }
}

/// The `name` of every entry in one list (`"workloads"`, ...).
#[cfg(test)]
pub fn declared_names(text: &str, list: &str) -> Result<Vec<String>, String> {
    group(text, list)?
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("a \"{list}\" entry lacks a name"))
        })
        .collect()
}

/// Declared metric units, by name, for one metric group
/// (`"end_to_end"` or `"per_layer"`).
pub fn declared_units(text: &str, group: &str) -> Result<BTreeMap<String, String>, String> {
    let items = self::group(text, group)?;
    let mut units = BTreeMap::new();
    for item in &items {
        let name = item.get("name").and_then(Json::as_str);
        let unit = item.get("unit").and_then(Json::as_str);
        match (name, unit) {
            (Some(name), Some(unit)) => {
                units.insert(name.to_string(), unit.to_string());
            }
            _ => return Err(format!("a \"{group}\" entry lacks a name or unit")),
        }
    }
    Ok(units)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_groups() {
        let text = r#"{"end_to_end": [{"name": "a", "unit": "ms", "bound": 0.1}],
                       "per_layer": [], "x": [true, null, -1.5e3, "s\"q"]}"#;
        let e2e = declared_units(text, "end_to_end").unwrap();
        assert_eq!(e2e.get("a").map(String::as_str), Some("ms"));
        assert!(declared_units(text, "per_layer").unwrap().is_empty());
        assert!(declared_units(text, "missing").is_err());
        assert_eq!(
            declared_names(text, "end_to_end").unwrap(),
            vec!["a".to_string()]
        );
    }
}
