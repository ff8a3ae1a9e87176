//! String-keyed maps that serialise as JSON objects.
//!
//! The offline `serde` shim writes every map as a list of pairs; the
//! benchmark's files are read by people and by other tools, which expect
//! `{"name": value}`.  This is the one place that speaks the shim's
//! value model for that.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use serde::{Deserialize, Error, Serialize, Value};

/// A `BTreeMap<String, T>` whose JSON form is an object.
#[derive(Debug, Clone, PartialEq)]
pub struct Named<T>(pub BTreeMap<String, T>);

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named(BTreeMap::new())
    }
}

impl<T> Deref for Named<T> {
    type Target = BTreeMap<String, T>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<T> DerefMut for Named<T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

impl<T> FromIterator<(String, T)> for Named<T> {
    fn from_iter<I: IntoIterator<Item = (String, T)>>(iter: I) -> Self {
        Named(iter.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for Named<T> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for Named<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Map(entries) = v else {
            return Err(Error::msg("expected a JSON object"));
        };
        entries
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_value(v)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_maps_are_json_objects() {
        let mut m = Named::default();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(json, r#"{"a":1,"b":2}"#);
        assert_eq!(serde_json::from_str::<Named<u64>>(&json).unwrap(), m);
        assert!(serde_json::from_str::<Named<u64>>("[1]").is_err());
    }
}
