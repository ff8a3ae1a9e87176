//! Derive macros for the offline `serde` shim.
//!
//! The workspace builds offline, without `syn`/`quote`, so the item is
//! parsed directly from the `proc_macro` token stream.  The supported
//! shapes are exactly what the workspace derives on: non-generic
//! structs (named, tuple, unit) and non-generic enums with unit /
//! newtype / tuple / struct variants, plus the `#[serde(skip)]` and
//! `#[serde(default)]` field attributes.
//!
//! Each derive emits one streaming method — `Serialize::serialize`
//! writing tokens into a `serde::Serializer`, `Deserialize::deserialize`
//! reading them from a `serde::Deserializer` — and nothing else: the
//! `Value` tree adapters (`to_value` / `from_value`) are the traits'
//! provided methods.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone, Default)]
struct FieldAttrs {
    skip: bool,
    default: bool,
}

#[derive(Debug, Clone)]
struct Field {
    name: String,
    /// The field's type, as source text.
    ty: String,
    attrs: FieldAttrs,
}

#[derive(Debug, Clone)]
enum Body {
    NamedStruct(Vec<Field>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    kind: VariantKind,
}

#[derive(Debug, Clone)]
enum VariantKind {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Item {
    name: String,
    body: Body,
}

type Tokens = std::iter::Peekable<proc_macro::token_stream::IntoIter>;

/// Parses `#[serde(...)]` contents into field attrs; returns default
/// attrs for every other attribute.
fn parse_attr(tokens: &mut Tokens) -> FieldAttrs {
    // Caller consumed `#`; next must be the bracket group.
    let mut attrs = FieldAttrs::default();
    if let Some(TokenTree::Group(g)) = tokens.next() {
        let mut inner = g.stream().into_iter();
        if let Some(TokenTree::Ident(tag)) = inner.next() {
            if tag.to_string() == "serde" {
                if let Some(TokenTree::Group(args)) = inner.next() {
                    for t in args.stream() {
                        if let TokenTree::Ident(i) = t {
                            match i.to_string().as_str() {
                                "skip" => attrs.skip = true,
                                "default" => attrs.default = true,
                                "skip_serializing" | "skip_deserializing" => attrs.skip = true,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    attrs
}

/// Skips leading attributes, merging any `#[serde(...)]` flags.
fn skip_attrs(tokens: &mut Tokens) -> FieldAttrs {
    let mut attrs = FieldAttrs::default();
    while matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        tokens.next(); // '#'
        let a = parse_attr(tokens);
        attrs.skip |= a.skip;
        attrs.default |= a.default;
    }
    attrs
}

/// Skips a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_visibility(tokens: &mut Tokens) {
    if matches!(tokens.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        tokens.next();
        if matches!(tokens.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            tokens.next();
        }
    }
}

/// Consumes type tokens up to a top-level comma (tracking `<`/`>`
/// nesting, which is not grouped in `proc_macro` streams) and returns
/// them as source text.
fn take_type(tokens: &mut Tokens) -> String {
    let mut ty = Vec::new();
    let mut angle_depth = 0i32;
    while let Some(tt) = tokens.peek() {
        if let TokenTree::Punct(p) = tt {
            match p.as_char() {
                ',' if angle_depth == 0 => break,
                '<' => angle_depth += 1,
                '>' => angle_depth = (angle_depth - 1).max(0),
                _ => {}
            }
        }
        ty.extend(tokens.next());
    }
    ty.into_iter().collect::<TokenStream>().to_string()
}

/// Parses the fields of a brace-delimited (named) field list.
fn parse_named_fields(stream: TokenStream) -> Vec<Field> {
    let mut tokens = stream.into_iter().peekable();
    let mut fields = Vec::new();
    loop {
        let attrs = skip_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        // ':'
        match tokens.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            _ => panic!("serde_derive shim: expected `:` after field `{name}`"),
        }
        let ty = take_type(&mut tokens);
        // Optional trailing comma.
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            tokens.next();
        }
        fields.push(Field { name: name.to_string(), ty, attrs });
    }
    fields
}

/// Counts the fields of a paren-delimited (tuple) field list.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let mut tokens = stream.into_iter().peekable();
    let mut count = 0;
    loop {
        let _ = skip_attrs(&mut tokens);
        skip_visibility(&mut tokens);
        if tokens.peek().is_none() {
            break;
        }
        take_type(&mut tokens);
        count += 1;
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            tokens.next();
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let mut tokens = stream.into_iter().peekable();
    let mut variants = Vec::new();
    loop {
        let _ = skip_attrs(&mut tokens);
        let Some(TokenTree::Ident(name)) = tokens.next() else {
            break;
        };
        let kind = match tokens.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream());
                tokens.next();
                VariantKind::Named(fields)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                tokens.next();
                VariantKind::Tuple(n)
            }
            _ => VariantKind::Unit,
        };
        // Skip a discriminant (`= expr`) if present, then the comma.
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            tokens.next();
            while let Some(tt) = tokens.peek() {
                if matches!(tt, TokenTree::Punct(p) if p.as_char() == ',') {
                    break;
                }
                tokens.next();
            }
        }
        if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            tokens.next();
        }
        variants.push(Variant { name: name.to_string(), kind });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let mut tokens = input.into_iter().peekable();
    let _ = skip_attrs(&mut tokens);
    skip_visibility(&mut tokens);
    let kw = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected struct/enum, got {other:?}"),
    };
    let name = match tokens.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde_derive shim: expected item name, got {other:?}"),
    };
    if matches!(tokens.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported (derive on `{name}`)");
    }
    let body = match kw.as_str() {
        "struct" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => panic!("serde_derive shim: unsupported struct body {other:?}"),
        },
        "enum" => match tokens.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream()))
            }
            other => panic!("serde_derive shim: unsupported enum body {other:?}"),
        },
        other => panic!("serde_derive shim: cannot derive on `{other}`"),
    };
    Item { name, body }
}

// --------------------------------------------------------------------
// Serialize: tokens into `__s: &mut impl serde::Serializer`.
// --------------------------------------------------------------------

/// Writes the named fields as a map; `access` turns a field name into
/// the expression of a reference to it.
fn write_map(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    let mut out = String::from("__s.begin_map();\n");
    for f in fields.iter().filter(|f| !f.attrs.skip) {
        out.push_str(&format!("__s.field(\"{}\", {});\n", f.name, access(&f.name)));
    }
    out.push_str("__s.end_map();\n");
    out
}

/// Writes `items` (reference expressions) as a sequence.
fn write_seq(items: impl Iterator<Item = String>) -> String {
    let mut out = String::from("__s.begin_seq();\n");
    for item in items {
        out.push_str(&format!("__s.item({item});\n"));
    }
    out.push_str("__s.end_seq();\n");
    out
}

/// Derives `serde::Serialize` (shim).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => write_map(fields, |f| format!("&self.{f}")),
        Body::TupleStruct(1) => "::serde::Serialize::serialize(&self.0, __s);".to_string(),
        Body::TupleStruct(n) => write_seq((0..*n).map(|i| format!("&self.{i}"))),
        Body::UnitStruct => "__s.null();".to_string(),
        Body::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let vname = &v.name;
                // Data-carrying variants are `{"Variant": inner}`.
                let tagged = |pattern: String, inner: String| {
                    format!(
                        "{name}::{vname}{pattern} => {{\n__s.begin_map();\n\
                         __s.key(\"{vname}\");\n{inner}__s.end_map();\n}}\n"
                    )
                };
                arms.push_str(&match &v.kind {
                    VariantKind::Unit => format!("{name}::{vname} => __s.str(\"{vname}\"),\n"),
                    VariantKind::Tuple(1) => tagged(
                        "(f0)".to_string(),
                        "::serde::Serialize::serialize(f0, __s);\n".to_string(),
                    ),
                    VariantKind::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        tagged(format!("({})", binds.join(", ")), write_seq(binds.into_iter()))
                    }
                    VariantKind::Named(fields) => {
                        let binds: Vec<String> = fields
                            .iter()
                            .map(|f| {
                                if f.attrs.skip {
                                    format!("{}: _", f.name)
                                } else {
                                    f.name.clone()
                                }
                            })
                            .collect();
                        tagged(
                            format!(" {{ {} }}", binds.join(", ")),
                            write_map(fields, str::to_string),
                        )
                    }
                });
            }
            format!("match self {{\n{arms}}}")
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize<__S: ::serde::Serializer>(&self, __s: &mut __S) {{\n{body}\n}}\n}}\n"
    );
    out.parse().expect("serde_derive shim: generated invalid Serialize impl")
}

// --------------------------------------------------------------------
// Deserialize: tokens from `__d: &mut impl serde::Deserializer`.
// --------------------------------------------------------------------

/// An expression reading a map into `ctor { fields }`: keys in any
/// order, unknown keys skipped, the first of duplicate keys kept, a
/// missing field an error unless it is `skip` or `default`.
fn read_map(fields: &[Field], ctor: &str) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    for (i, f) in fields.iter().enumerate() {
        let fname = &f.name;
        if f.attrs.skip {
            inits.push_str(&format!("{fname}: ::std::default::Default::default(),\n"));
            continue;
        }
        slots.push_str(&format!(
            "let mut __f{i}: ::std::option::Option<{}> = ::std::option::Option::None;\n",
            f.ty
        ));
        arms.push_str(&format!(
            "\"{fname}\" if __f{i}.is_none() => __f{i} = \
             ::std::option::Option::Some(::serde::Deserialize::deserialize(__d)?),\n"
        ));
        inits.push_str(&if f.attrs.default {
            format!("{fname}: __f{i}.unwrap_or_default(),\n")
        } else {
            format!(
                "{fname}: match __f{i} {{\n\
                 ::std::option::Option::Some(__v) => __v,\n\
                 ::std::option::Option::None => return ::std::result::Result::Err(\
                 ::serde::Error::msg(\"missing field `{fname}` in {ctor}\")),\n}},\n"
            )
        });
    }
    format!(
        "{{\n__d.begin_map()?;\n{slots}\
         while let ::std::option::Option::Some(__k) = __d.next_key()? {{\n\
         match &*__k {{\n{arms}_ => __d.skip()?,\n}}\n}}\n\
         {ctor} {{\n{inits}}}\n}}"
    )
}

/// An expression reading a sequence of exactly `n` elements into
/// `ctor(..)`.
fn read_seq(n: usize, ctor: &str) -> String {
    let elements = vec!["__d.element()?"; n].join(", ");
    format!("{{\n__d.begin_seq()?;\nlet __v = {ctor}({elements});\n__d.end_seq()?;\n__v\n}}")
}

fn error(message: &str) -> String {
    format!("::std::result::Result::Err(::serde::Error::msg({message}))")
}

/// Derives `serde::Deserialize` (shim).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let name = &item.name;
    let body = match &item.body {
        Body::NamedStruct(fields) => format!("::std::result::Result::Ok({})", read_map(fields, name)),
        Body::TupleStruct(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::deserialize(__d)?))")
        }
        Body::TupleStruct(n) => format!("::std::result::Result::Ok({})", read_seq(*n, name)),
        Body::UnitStruct => format!("__d.skip()?;\n::std::result::Result::Ok({name})"),
        Body::Enum(variants) => {
            let unknown = error(&format!("format!(\"unknown variant `{{__other}}` of {name}\")"));
            let not_a_variant = error(&format!("\"expected variant of {name}\""));
            let mut unit_arms = String::new();
            let mut tagged_arms = String::new();
            for v in variants {
                let (vname, ctor) = (&v.name, format!("{name}::{}", v.name));
                match &v.kind {
                    VariantKind::Unit => unit_arms
                        .push_str(&format!("\"{vname}\" => ::std::result::Result::Ok({ctor}),\n")),
                    VariantKind::Tuple(1) => tagged_arms.push_str(&format!(
                        "\"{vname}\" => {ctor}(::serde::Deserialize::deserialize(__d)?),\n"
                    )),
                    VariantKind::Tuple(n) => {
                        tagged_arms.push_str(&format!("\"{vname}\" => {},\n", read_seq(*n, &ctor)));
                    }
                    VariantKind::Named(fields) => {
                        tagged_arms.push_str(&format!("\"{vname}\" => {},\n", read_map(fields, &ctor)));
                    }
                }
            }
            // A unit variant is its name; any other is a one-entry map
            // from its name to its data.
            let tagged = if tagged_arms.is_empty() {
                String::new()
            } else {
                format!(
                    "::serde::de::Kind::Map => {{\n__d.begin_map()?;\n\
                     let ::std::option::Option::Some(__tag) = __d.next_key()? else {{\n\
                     return {not_a_variant};\n}};\n\
                     let __v = match &*__tag {{\n{tagged_arms}\
                     __other => return {unknown},\n}};\n\
                     if __d.next_key()?.is_some() {{\nreturn {not_a_variant};\n}}\n\
                     ::std::result::Result::Ok(__v)\n}}\n"
                )
            };
            format!(
                "match __d.peek()? {{\n\
                 ::serde::de::Kind::Str => match &*__d.str()? {{\n{unit_arms}\
                 __other => {unknown},\n}},\n\
                 {tagged}\
                 _ => {not_a_variant},\n}}"
            )
        }
    };
    let out = format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn deserialize<'de, __D: ::serde::Deserializer<'de>>(__d: &mut __D) \
         -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}\n"
    );
    out.parse().expect("serde_derive shim: generated invalid Deserialize impl")
}
