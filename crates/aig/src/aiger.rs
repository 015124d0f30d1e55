//! AIGER reading and writing for combinational AIGs: the ASCII `.aag`
//! format ([`to_aag`]/[`from_aag`]) and the binary `.aig` format
//! ([`to_aig_binary`]/[`from_aig_binary`]).
//!
//! Only the combinational subset is supported (no latches), which is
//! all the BoolE benchmarks need.

use std::collections::HashMap;
use std::fmt;

use crate::{Aig, Lit, Node};

/// Error from parsing an AIGER file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAigerError {
    line: usize,
    message: String,
}

impl ParseAigerError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseAigerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aiger parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseAigerError {}

/// The most primary inputs [`from_aig_binary`] accepts. Binary AIGER
/// inputs occupy no bytes, so the file size cannot bound the header's
/// `I`; without a limit a 32-byte header could demand billions of
/// inputs. The largest benchmark circuit has 128 inputs.
pub const MAX_INPUTS: u32 = 1 << 20;

/// Serializes an AIG to AIGER ASCII format (`.aag`), including output
/// symbol names.
pub fn to_aag(aig: &Aig) -> String {
    let m = aig.num_nodes() - 1;
    let i = aig.num_inputs();
    let o = aig.num_outputs();
    let a = aig.num_ands();
    let mut s = format!("aag {m} {i} 0 {o} {a}\n");
    for input in aig.inputs() {
        s.push_str(&format!("{}\n", input.lit().raw()));
    }
    for (_, lit) in aig.outputs() {
        s.push_str(&format!("{}\n", lit.raw()));
    }
    for var in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(var) {
            // AIGER wants lhs > rhs0 >= rhs1.
            let (hi, lo) = if f0.raw() >= f1.raw() {
                (f0, f1)
            } else {
                (f1, f0)
            };
            s.push_str(&format!("{} {} {}\n", var.lit().raw(), hi.raw(), lo.raw()));
        }
    }
    for (idx, (name, _)) in aig.outputs().iter().enumerate() {
        s.push_str(&format!("o{idx} {name}\n"));
    }
    s
}

/// Parses an AIGER ASCII (`.aag`) combinational file.
///
/// # Errors
///
/// Returns an error on malformed headers, latches (unsupported),
/// out-of-order definitions, or literals out of range.
pub fn from_aag(text: &str) -> Result<Aig, ParseAigerError> {
    let mut lines = text.lines().enumerate();
    let (lineno, header) = lines
        .next()
        .ok_or_else(|| ParseAigerError::new(0, "empty file"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aag" {
        return Err(ParseAigerError::new(
            lineno + 1,
            "header must be `aag M I L O A`",
        ));
    }
    let parse_num = |s: &str, line: usize| -> Result<u32, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(line, format!("invalid number `{s}`")))
    };
    let m = parse_num(fields[1], lineno + 1)?;
    let i = parse_num(fields[2], lineno + 1)?;
    let l = parse_num(fields[3], lineno + 1)?;
    let o = parse_num(fields[4], lineno + 1)?;
    let a = parse_num(fields[5], lineno + 1)?;
    if l != 0 {
        return Err(ParseAigerError::new(
            lineno + 1,
            "latches are not supported (combinational only)",
        ));
    }
    if i.checked_add(a).is_none_or(|defined| m < defined) {
        return Err(ParseAigerError::new(lineno + 1, "M < I + A"));
    }

    let mut aig = Aig::new();
    // input literal (as written) -> our literal
    let mut lit_map: HashMap<u32, Lit> = HashMap::new();
    lit_map.insert(0, Lit::FALSE);

    for _ in 0..i {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "unexpected EOF in inputs"))?;
        let raw = parse_num(line.trim(), lineno + 1)?;
        if raw < 2 || raw & 1 == 1 {
            return Err(ParseAigerError::new(
                lineno + 1,
                "input literal must be a positive even literal",
            ));
        }
        let lit = aig.add_input();
        lit_map.insert(raw, lit);
    }

    // Each output takes a line of at least two bytes, so the text
    // bounds how many can follow whatever the header claims.
    let mut output_raw: Vec<(usize, u32)> = Vec::with_capacity((o as usize).min(text.len() / 2));
    for _ in 0..o {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "unexpected EOF in outputs"))?;
        output_raw.push((lineno + 1, parse_num(line.trim(), lineno + 1)?));
    }

    for _ in 0..a {
        let (lineno, line) = lines
            .next()
            .ok_or_else(|| ParseAigerError::new(0, "unexpected EOF in AND gates"))?;
        let nums: Vec<&str> = line.split_whitespace().collect();
        if nums.len() != 3 {
            return Err(ParseAigerError::new(
                lineno + 1,
                "AND line must be `lhs rhs0 rhs1`",
            ));
        }
        let lhs = parse_num(nums[0], lineno + 1)?;
        let rhs0 = parse_num(nums[1], lineno + 1)?;
        let rhs1 = parse_num(nums[2], lineno + 1)?;
        if lhs & 1 == 1 {
            return Err(ParseAigerError::new(lineno + 1, "AND lhs must be even"));
        }
        let resolve =
            |raw: u32, line: usize, map: &HashMap<u32, Lit>| -> Result<Lit, ParseAigerError> {
                let var_lit = raw & !1;
                let lit = map.get(&var_lit).copied().ok_or_else(|| {
                    ParseAigerError::new(line, format!("literal {raw} used before definition"))
                })?;
                Ok(lit ^ (raw & 1 == 1))
            };
        let f0 = resolve(rhs0, lineno + 1, &lit_map)?;
        let f1 = resolve(rhs1, lineno + 1, &lit_map)?;
        let lit = aig.and(f0, f1);
        lit_map.insert(lhs, lit);
    }

    // Optional symbol table: oN name
    let mut out_names: HashMap<usize, String> = HashMap::new();
    for (lineno, line) in lines {
        let line = line.trim();
        if line == "c" || line.starts_with("c ") {
            break;
        }
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('o') {
            let mut parts = rest.splitn(2, ' ');
            let idx: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| ParseAigerError::new(lineno + 1, "bad symbol line"))?;
            let name = parts.next().unwrap_or("").to_owned();
            out_names.insert(idx, name);
        }
        // input symbols (iN) are accepted and ignored
    }

    for (idx, (line, raw)) in output_raw.iter().enumerate() {
        let var_lit = raw & !1;
        let lit = lit_map.get(&var_lit).copied().ok_or_else(|| {
            ParseAigerError::new(*line, format!("undefined output literal {raw}"))
        })? ^ (raw & 1 == 1);
        let name = out_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("o{idx}"));
        aig.add_output(name, lit);
    }
    let _ = m;
    Ok(aig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::exhaustive_equiv_check;

    fn full_adder_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let s = aig.xor3(a, b, c);
        let co = aig.maj(a, b, c);
        aig.add_output("sum", s);
        aig.add_output("carry", co);
        aig
    }

    #[test]
    fn roundtrip_preserves_function() {
        let aig = full_adder_aig();
        let text = to_aag(&aig);
        let parsed = from_aag(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(exhaustive_equiv_check(&aig, &parsed));
        assert_eq!(parsed.outputs()[0].0, "sum");
        assert_eq!(parsed.outputs()[1].0, "carry");
    }

    #[test]
    fn parses_canonical_example() {
        // AND of two inputs.
        let text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n";
        let aig = from_aag(text).unwrap();
        assert_eq!(aig.num_inputs(), 2);
        assert_eq!(aig.num_ands(), 1);
        let mut expect = Aig::new();
        let a = expect.add_input();
        let b = expect.add_input();
        let y = expect.and(a, b);
        expect.add_output("y", y);
        assert!(exhaustive_equiv_check(&aig, &expect));
    }

    #[test]
    fn rejects_malformed() {
        assert!(from_aag("").is_err());
        assert!(from_aag("aig 1 1 0 0 0\n2\n").is_err());
        assert!(from_aag("aag 1 0 1 0 0\n").is_err()); // latch
        assert!(from_aag("aag 1 1 0 1 0\n2\n").is_err()); // missing output line
        assert!(from_aag("aag 3 2 0 0 1\n2\n4\n6 8 2\n").is_err()); // fwd ref
    }

    #[test]
    fn complemented_outputs_roundtrip() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let x = aig.and(a, b);
        aig.add_output("nand", !x);
        let parsed = from_aag(&to_aag(&aig)).unwrap();
        assert!(exhaustive_equiv_check(&aig, &parsed));
    }
}

/// Serializes an AIG to the binary AIGER format (`.aig`).
///
/// In the binary format, inputs are implicitly numbered `2, 4, …, 2I`
/// and AND gates `2(I+1), …, 2M`; each AND is stored as two
/// LEB128-style deltas. Because our in-memory variable order already
/// is inputs-then-ANDs in topological order, the mapping is direct.
pub fn to_aig_binary(aig: &Aig) -> Vec<u8> {
    // Map our variables to the contiguous binary numbering: inputs
    // first (they already are, by construction, interleaved with
    // nothing — but re-map defensively).
    let mut var_code: Vec<u32> = vec![0; aig.num_nodes()];
    let mut next = 1u32;
    for input in aig.inputs() {
        var_code[input.index()] = next;
        next += 1;
    }
    for var in aig.and_vars() {
        var_code[var.index()] = next;
        next += 1;
    }
    let code_of =
        |lit: Lit| -> u32 { var_code[lit.var().index()] * 2 + u32::from(lit.is_complemented()) };

    let m = aig.num_nodes() - 1;
    let i = aig.num_inputs();
    let o = aig.num_outputs();
    let a = aig.num_ands();
    let mut out = format!("aig {m} {i} 0 {o} {a}\n").into_bytes();
    for (_, lit) in aig.outputs() {
        out.extend_from_slice(format!("{}\n", code_of(*lit)).as_bytes());
    }
    for var in aig.and_vars() {
        if let Node::And(f0, f1) = aig.node(var) {
            let lhs = var_code[var.index()] * 2;
            let (hi, lo) = {
                let c0 = code_of(f0);
                let c1 = code_of(f1);
                if c0 >= c1 {
                    (c0, c1)
                } else {
                    (c1, c0)
                }
            };
            debug_assert!(lhs > hi, "AND operands must precede the gate");
            push_delta(&mut out, lhs - hi);
            push_delta(&mut out, hi - lo);
        }
    }
    for (idx, (name, _)) in aig.outputs().iter().enumerate() {
        out.extend_from_slice(format!("o{idx} {name}\n").as_bytes());
    }
    out
}

fn push_delta(out: &mut Vec<u8>, mut delta: u32) {
    loop {
        let byte = (delta & 0x7F) as u8;
        delta >>= 7;
        if delta == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Parses a binary AIGER (`.aig`) combinational file.
///
/// # Errors
///
/// Returns an error on malformed headers, latches, truncated delta
/// streams, or out-of-order gates.
pub fn from_aig_binary(bytes: &[u8]) -> Result<Aig, ParseAigerError> {
    // Header line.
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| ParseAigerError::new(1, "missing header line"))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| ParseAigerError::new(1, "header is not UTF-8"))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "aig" {
        return Err(ParseAigerError::new(1, "header must be `aig M I L O A`"));
    }
    let parse_num = |s: &str| -> Result<u32, ParseAigerError> {
        s.parse()
            .map_err(|_| ParseAigerError::new(1, format!("invalid number `{s}`")))
    };
    let m = parse_num(fields[1])?;
    let i = parse_num(fields[2])?;
    let l = parse_num(fields[3])?;
    let o = parse_num(fields[4])?;
    let a = parse_num(fields[5])?;
    if l != 0 {
        return Err(ParseAigerError::new(1, "latches are not supported"));
    }
    if i.checked_add(a) != Some(m) {
        return Err(ParseAigerError::new(1, "binary aiger requires M = I + A"));
    }
    if m > (u32::MAX - 1) / 2 {
        return Err(ParseAigerError::new(1, "M too large for 32-bit literals"));
    }
    if i > MAX_INPUTS {
        return Err(ParseAigerError::new(
            1,
            format!("I = {i} exceeds the input limit {MAX_INPUTS}"),
        ));
    }
    let mut pos = newline + 1;
    // Capacities below are capped by the remaining bytes (an output
    // line takes at least two), so a hostile header cannot request a
    // huge allocation up front.
    let rest = bytes.len() - pos;

    // Output literal lines (ASCII decimal).
    let mut output_codes: Vec<u32> = Vec::with_capacity((o as usize).min(rest / 2));
    for _ in 0..o {
        let end = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ParseAigerError::new(0, "unexpected EOF in outputs"))?
            + pos;
        let line = std::str::from_utf8(&bytes[pos..end])
            .map_err(|_| ParseAigerError::new(0, "output line is not UTF-8"))?;
        output_codes.push(parse_num(line.trim())?);
        pos = end + 1;
    }

    // AND gate delta stream.
    let mut aig = Aig::new();
    // code (variable number in the binary ordering) -> literal.
    let mut lits: Vec<Lit> = Vec::with_capacity((m as usize + 1).min(rest + 1));
    lits.push(Lit::FALSE);
    for _ in 0..i {
        lits.push(aig.add_input());
    }
    let read_delta = |pos: &mut usize| -> Result<u32, ParseAigerError> {
        let mut value: u32 = 0;
        let mut shift = 0;
        loop {
            let &byte = bytes
                .get(*pos)
                .ok_or_else(|| ParseAigerError::new(0, "truncated delta stream"))?;
            *pos += 1;
            value |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 28 {
                return Err(ParseAigerError::new(0, "delta overflow"));
            }
        }
    };
    for gate in 0..a {
        let lhs = (i + 1 + gate) * 2;
        let d0 = read_delta(&mut pos)?;
        let d1 = read_delta(&mut pos)?;
        let rhs0 = lhs
            .checked_sub(d0)
            .ok_or_else(|| ParseAigerError::new(0, "delta exceeds lhs"))?;
        let rhs1 = rhs0
            .checked_sub(d1)
            .ok_or_else(|| ParseAigerError::new(0, "second delta exceeds rhs0"))?;
        let resolve = |code: u32| -> Result<Lit, ParseAigerError> {
            let lit = lits
                .get((code / 2) as usize)
                .copied()
                .ok_or_else(|| ParseAigerError::new(0, format!("literal {code} out of range")))?;
            Ok(lit ^ (code & 1 == 1))
        };
        let f0 = resolve(rhs0)?;
        let f1 = resolve(rhs1)?;
        lits.push(aig.and(f0, f1));
    }

    // Optional symbol table.
    let mut out_names: HashMap<usize, String> = HashMap::new();
    if pos < bytes.len() {
        if let Ok(rest) = std::str::from_utf8(&bytes[pos..]) {
            for line in rest.lines() {
                if line == "c" || line.starts_with("c ") {
                    break;
                }
                if let Some(spec) = line.strip_prefix('o') {
                    let mut parts = spec.splitn(2, ' ');
                    if let Some(idx) = parts.next().and_then(|s| s.parse::<usize>().ok()) {
                        out_names.insert(idx, parts.next().unwrap_or("").to_owned());
                    }
                }
            }
        }
    }
    for (idx, code) in output_codes.iter().enumerate() {
        let lit = lits.get((code / 2) as usize).copied().ok_or_else(|| {
            ParseAigerError::new(0, format!("output literal {code} out of range"))
        })? ^ (code & 1 == 1);
        let name = out_names
            .get(&idx)
            .cloned()
            .unwrap_or_else(|| format!("o{idx}"));
        aig.add_output(name, lit);
    }
    Ok(aig)
}

#[cfg(test)]
mod binary_tests {
    use super::*;
    use crate::sim::{exhaustive_equiv_check, random_equiv_check};

    #[test]
    fn binary_roundtrip_small() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let s = aig.xor3(a, b, c);
        let co = aig.maj(a, b, c);
        aig.add_output("sum", s);
        aig.add_output("carry", !co);
        let bytes = to_aig_binary(&aig);
        let parsed = from_aig_binary(&bytes).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), 2);
        assert!(exhaustive_equiv_check(&aig, &parsed));
        assert_eq!(parsed.outputs()[0].0, "sum");
    }

    #[test]
    fn binary_roundtrip_multiplier() {
        let aig = crate::gen::csa_multiplier(6);
        let bytes = to_aig_binary(&aig);
        let parsed = from_aig_binary(&bytes).unwrap();
        assert!(random_equiv_check(&aig, &parsed, 8, 0xB1A));
        // Binary format is more compact than ASCII.
        assert!(bytes.len() < to_aag(&aig).len());
    }

    #[test]
    fn binary_rejects_malformed() {
        assert!(from_aig_binary(b"").is_err());
        assert!(from_aig_binary(b"aig 1 1 1 0 0\n").is_err()); // latch
        assert!(from_aig_binary(b"aig 2 1 0 0 2\n").is_err()); // M != I+A
                                                               // Truncated delta stream.
        assert!(from_aig_binary(b"aig 2 1 0 0 1\n").is_err());
    }

    #[test]
    fn binary_and_ascii_agree() {
        let aig = crate::gen::booth_multiplier(4);
        let from_bin = from_aig_binary(&to_aig_binary(&aig)).unwrap();
        let from_text = from_aag(&to_aag(&aig)).unwrap();
        assert!(exhaustive_equiv_check(&from_bin, &from_text));
    }
}
