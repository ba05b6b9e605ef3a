//! Result files, span lines and `BENCHMARK.json` use the workspace's
//! `hart_obs::Json`; this adds the builder and reader helpers the
//! benchmark needs on top of it.

pub use hart_obs::Json;

/// A value that becomes one JSON value.
pub trait ToJson {
    fn to_json(self) -> Json;
}

impl ToJson for Json {
    fn to_json(self) -> Json {
        self
    }
}

/// Non-finite numbers (a failed op's +∞ latency) have no JSON spelling and
/// are written as `null`, which `compare` reads back as +∞.
impl ToJson for f64 {
    fn to_json(self) -> Json {
        if self.is_finite() {
            Json::f64(self)
        } else {
            Json::Null
        }
    }
}

impl ToJson for u64 {
    fn to_json(self) -> Json {
        Json::u64(self)
    }
}

impl ToJson for usize {
    fn to_json(self) -> Json {
        Json::u64(self as u64)
    }
}

impl ToJson for bool {
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
}

impl ToJson for &str {
    fn to_json(self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(self) -> Json {
        Json::Str(self)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(self) -> Json {
        Json::Arr(self.into_iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(self) -> Json {
        self.map_or(Json::Null, ToJson::to_json)
    }
}

/// Object building and the readers `hart_obs::Json` lacks.
pub trait JsonExt {
    fn obj() -> Json;
    /// Append `key: value` to an object (panics on a non-object: a bug).
    fn set(&mut self, key: &str, value: impl ToJson) -> &mut Json;
    fn as_str(&self) -> Option<&str>;
    fn as_arr(&self) -> &[Json];
    fn entries(&self) -> &[(String, Json)];
}

impl JsonExt for Json {
    fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    fn set(&mut self, key: &str, value: impl ToJson) -> &mut Json {
        match self {
            Json::Obj(kv) => kv.push((key.to_string(), value.to_json())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_reads_back() {
        let mut o = Json::obj();
        o.set("a", 1.5)
            .set("b", "x\"y\n")
            .set("c", vec![1u64, 2])
            .set("d", true)
            .set("n", 3u64)
            .set("none", None::<u64>);
        let j = Json::parse(&o.to_string()).unwrap();
        assert_eq!(j, o);
        assert_eq!(j.get("a").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("b").and_then(Json::as_str), Some("x\"y\n"));
        assert_eq!(j.get("c").map(Json::as_arr).map(<[_]>::len), Some(2));
        assert_eq!(j.entries().len(), 6);
    }

    #[test]
    fn non_finite_is_null() {
        assert_eq!(f64::INFINITY.to_json(), Json::Null);
        assert_eq!(f64::NAN.to_json().to_string(), "null");
    }
}
