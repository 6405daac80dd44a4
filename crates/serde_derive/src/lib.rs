//! Vendored minimal `serde_derive` stand-in.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the tiny slice of serde's derive surface it actually uses:
//!
//! * `#[derive(Serialize)]` on named-field structs, tuple/newtype structs
//!   and fieldless enums (no generics, no `#[serde(...)]` attributes);
//! * `#[derive(Deserialize)]`, which expands to nothing — no code in this
//!   workspace ever deserializes.
//!
//! The generated impl produces a `serde::Value` tree; rendering to JSON
//! text lives in the vendored `serde_json` crate.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (see module docs for the supported shapes).
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs_and_vis(&tokens, 0);

    let kind = ident_at(&tokens, i, "expected `struct` or `enum`");
    i += 1;
    let name = ident_at(&tokens, i, "expected a type name");
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            panic!("vendored serde derive does not support generic types");
        }
    }

    let body = match kind.as_str() {
        "struct" => struct_body(&tokens, i),
        "enum" => enum_body(&tokens, i, &name),
        other => panic!("cannot derive Serialize for `{other}` items"),
    };

    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated impl must parse")
}

/// Derive `serde::Deserialize`: accepted for API compatibility, expands to
/// nothing because the workspace never deserializes.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Skip leading `#[...]` attributes and a `pub` / `pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => return i,
        }
    }
}

fn ident_at(tokens: &[TokenTree], i: usize, msg: &str) -> String {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("{msg}, found {other:?}"),
    }
}

fn struct_body(tokens: &[TokenTree], i: usize) -> String {
    match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            let fields = named_field_names(&g.stream().into_iter().collect::<Vec<_>>());
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!(
                        "(::std::string::String::from(\"{f}\"), \
                          ::serde::Serialize::serialize_value(&self.{f}))"
                    )
                })
                .collect();
            format!(
                "::serde::Value::Object(::std::vec![{}])",
                entries.join(", ")
            )
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            let n = tuple_field_count(&g.stream().into_iter().collect::<Vec<_>>());
            match n {
                0 => "::serde::Value::Null".to_string(),
                // Newtypes serialize transparently, as in real serde.
                1 => "::serde::Serialize::serialize_value(&self.0)".to_string(),
                _ => {
                    let elems: Vec<String> = (0..n)
                        .map(|k| format!("::serde::Serialize::serialize_value(&self.{k})"))
                        .collect();
                    format!("::serde::Value::Array(::std::vec![{}])", elems.join(", "))
                }
            }
        }
        _ => "::serde::Value::Null".to_string(), // unit struct
    }
}

/// Field names of a named-field struct body, skipping attributes and
/// visibility, splitting on commas outside `<...>` (groups are atomic in a
/// token stream, so only angle brackets need explicit depth tracking).
fn named_field_names(toks: &[TokenTree]) -> Vec<String> {
    let mut names = Vec::new();
    let mut j = 0;
    while j < toks.len() {
        j = skip_attrs_and_vis(toks, j);
        if j >= toks.len() {
            break;
        }
        match &toks[j] {
            TokenTree::Ident(id) => names.push(id.to_string()),
            other => panic!("expected a field name, found {other:?}"),
        }
        j += 1;
        let mut angle = 0i32;
        while j < toks.len() {
            if let TokenTree::Punct(p) = &toks[j] {
                match p.as_char() {
                    '<' => angle += 1,
                    '>' => angle -= 1,
                    ',' if angle == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
    }
    names
}

fn tuple_field_count(toks: &[TokenTree]) -> usize {
    if toks.is_empty() {
        return 0;
    }
    let mut n = 1;
    let mut angle = 0i32;
    for t in toks {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle -= 1,
                ',' if angle == 0 => n += 1,
                _ => {}
            }
        }
    }
    // A trailing comma would overcount by one; none of the vendored call
    // sites use one, and an extra `self.N` would fail to compile loudly.
    n
}

fn enum_body(tokens: &[TokenTree], i: usize, name: &str) -> String {
    let Some(TokenTree::Group(g)) = tokens.get(i) else {
        panic!("expected an enum body");
    };
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut arms = Vec::new();
    let mut j = 0;
    while j < toks.len() {
        j = skip_attrs_and_vis(&toks, j);
        if j >= toks.len() {
            break;
        }
        let variant = ident_at(&toks, j, "expected a variant name");
        j += 1;
        if let Some(TokenTree::Group(_)) = toks.get(j) {
            panic!("vendored serde derive supports only fieldless enum variants");
        }
        if let Some(TokenTree::Punct(p)) = toks.get(j) {
            if p.as_char() == ',' {
                j += 1;
            }
        }
        arms.push(format!(
            "{name}::{variant} => ::serde::Value::Str(::std::string::String::from(\"{variant}\"))"
        ));
    }
    format!("match self {{ {} }}", arms.join(", "))
}
