//! The parser's error texts, pinned: about sixty malformed statements and
//! the exact message each is rejected with, source position included.
//!
//! Front-end changes (how tokens are stored, how the parser steps over
//! them) must not change what a user is told. A row here changes only when
//! a message was wrong.

use grfusion_sql::{parse_statement, parse_statements};

/// `(statement, message)`; the message is the error's text after the
/// `parse error: ` prefix.
const GOLDEN: &[(&str, &str)] = &[
    ("SELECT 'abc FROM t", "unterminated string literal starting at 1:8"),
    ("SELECT \"abc FROM t", "unterminated string literal starting at 1:8"),
    ("SELECT a FROM t WHERE b = 'it''s", "unterminated string literal starting at 1:27"),
    ("SELECT a FROM t WHERE b = 'line one\nline two", "unterminated string literal starting at 1:27"),
    ("SELECT 99999999999999999999 FROM t", "bad integer `99999999999999999999` at 1:8"),
    ("SELECT 9223372036854775808 FROM t", "bad integer `9223372036854775808` at 1:8"),
    ("SELECT a FROM t LIMIT 18446744073709551616", "bad integer `18446744073709551616` at 1:23"),
    ("SELECT a FROM t WHERE x -9223372036854775808", "bad integer `9223372036854775808` at 1:26"),
    ("SELECT a FROM t WHERE x = -9223372036854775809", "bad integer `9223372036854775809` at 1:28"),
    ("SELECT a @ b FROM t", "unexpected character `@` at 1:10"),
    ("SELECT a FROM t WHERE x = #", "unexpected character `#` at 1:27"),
    ("SELECT a FROM t WHERE x = !", "unexpected character `!` at 1:27"),
    // Reported `Ã`, the first byte of `é` read as a character, until the
    // lexer decoded the character it stops at.
    ("SELECT é FROM t", "unexpected character `é` at 1:8"),
    // Reported 1:26, a column per byte of `é`, until a one-line string
    // counted characters as a multi-line one always did.
    ("SELECT 'é' FROM t WHERE %%", "unexpected token Percent at 1:25 in expression"),
    ("SELECT \"é\" FROM t WHERE %%", "unexpected token Percent at 1:25 in expression"),
    ("SELECT 'e' FROM t WHERE %%", "unexpected token Percent at 1:25 in expression"),
    ("SELECT 'a\nbé' FROM t WHERE %%", "unexpected token Percent at 2:18 in expression"),
    ("SELECT a\nFROM t\nWHERE @", "unexpected character `@` at 3:7"),
    ("SELECT 1e FROM t", "expected `FROM` at 1:9 but found Ident(\"e\")"),
    ("SELECT 1.5.5 FROM t", "expected `FROM` at 1:11 but found Double(0.5)"),
    ("", "unrecognized statement at 1:1: Eof"),
    ("FOO BAR", "unrecognized statement at 1:1: Ident(\"FOO\")"),
    ("123", "unrecognized statement at 1:1: Integer(123)"),
    ("SELECT", "unexpected token Eof at 1:7 in expression"),
    ("SELECT FROM t", "expected `FROM` at 1:13 but found Ident(\"t\")"),
    ("SELECT a FROM", "expected table or graph view name at 1:14 but found Eof"),
    ("SELECT a FROM t WHERE", "unexpected token Eof at 1:22 in expression"),
    ("SELECT (a FROM t", "expected `)` at 1:11 but found Ident(\"FROM\")"),
    ("SELECT COUNT(a FROM t", "expected `)` at 1:16 but found Ident(\"FROM\")"),
    ("SELECT P.Edges[0 FROM g.Paths P", "expected `]` at 1:18 but found Ident(\"FROM\")"),
    ("SELECT P.Edges[a] FROM g.Paths P", "expected index at 1:16 but found Ident(\"a\")"),
    ("SELECT P.Edges[0..x] FROM g.Paths P", "expected range end at 1:19 but found Ident(\"x\")"),
    ("SELECT a FROM t extra garbage ,", "unexpected trailing input at 1:23: Ident(\"garbage\")"),
    ("SELECT a FROM t; SELECT b FROM t", "unexpected trailing input at 1:18: Ident(\"SELECT\")"),
    ("SELECT a FROM t LIMIT x", "expected LIMIT count at 1:23 but found Ident(\"x\")"),
    ("SELECT a FROM t LIMIT -1", "expected LIMIT count at 1:23 but found Minus"),
    ("SELECT a FROM g.Foo", "expected PATHS, VERTEXES, or EDGES after `g.` but found `FOO`"),
    ("SELECT * FROM g.Paths P HINT(XYZ)", "unknown hint `XYZ`"),
    ("SELECT * FROM g.Paths P HINT(SHORTESTPATH w)", "expected `(` at 1:43 but found Ident(\"w\")"),
    ("CREATE TABLE t (a BLOB)", "unknown type name `BLOB`"),
    ("CREATE TABLE t (a INT", "expected `)` at 1:22 but found Eof"),
    ("CREATE TABLE t (a VARCHAR(x))", "expected type length at 1:27 but found Ident(\"x\")"),
    ("CREATE UNIQUE TABLE t (a INT)", "expected INDEX after CREATE UNIQUE/ORDERED at 1:15"),
    ("CREATE GRAPH VIEW", "expected graph view name at 1:18 but found Eof"),
    ("CREATE GRAPH VIEW g VERTEXES(ID = a) FROM v EDGES(ID = b, FROM = c) FROM e", "EDGES clause requires a TO mapping"),
    ("CREATE GRAPH VIEW g VERTEXES(ID = a, ID = b) FROM v EDGES(ID = b, FROM = c, TO = d) FROM e", "duplicate ID mapping in VERTEXES clause"),
    ("INSERT t VALUES (1)", "expected `INTO` at 1:8 but found Ident(\"t\")"),
    ("INSERT INTO t VALUES (1, 2", "expected `)` at 1:27 but found Eof"),
    ("INSERT INTO t VALUES 1", "expected `(` at 1:22 but found Integer(1)"),
    ("UPDATE t a = 1", "expected `SET` at 1:10 but found Ident(\"a\")"),
    ("DELETE t", "expected `FROM` at 1:8 but found Ident(\"t\")"),
    ("DROP VIEW g", "expected `GRAPH` at 1:6 but found Ident(\"VIEW\")"),
    ("SELECT a FROM t WHERE a BETWEEN 1 5", "expected `AND` at 1:35 but found Integer(5)"),
    ("SELECT a FROM t WHERE a IN 1", "expected `(` at 1:28 but found Integer(1)"),
    ("SELECT a FROM t ORDER a", "expected `BY` at 1:23 but found Ident(\"a\")"),
    ("SELECT a FROM t WHERE a = 'x' 'y'", "unexpected trailing input at 1:31: StringLit(\"y\")"),
    ("SELECT a FROM t WHERE b = 1.5 2.5", "unexpected trailing input at 1:31: Double(2.5)"),
    ("SELECT a FROM t 'a\"b'", "unexpected trailing input at 1:17: StringLit(\"a\\\"b\")"),
    ("SELECT a FROM t JOIN u", "expected `ON` at 1:23 but found Eof"),
    ("EXPLAIN DELETE FROM t", "expected `SELECT` at 1:9 but found Ident(\"DELETE\")"),
    ("SELECT a FROM t WHERE x = ? ?", "unexpected trailing input at 1:29: Question"),
    ("SELECT TOP 5", "unexpected token Eof at 1:13 in expression"),
];

#[test]
fn every_malformed_statement_reports_its_golden_text() {
    let mut wrong = Vec::new();
    for (sql, want) in GOLDEN {
        let got = match parse_statement(sql) {
            Ok(stmt) => format!("parsed: {stmt:?}"),
            Err(e) => e.to_string(),
        };
        if got != format!("parse error: {want}") {
            wrong.push(format!("{sql:?}\n    want: {want}\n    got:  {got}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "{} rows moved:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// A script reports the same text as the statement alone.
#[test]
fn scripts_report_the_same_texts() {
    for (sql, want) in GOLDEN.iter().filter(|(sql, _)| !sql.contains(';')) {
        let got = parse_statements(sql).map(|_| ());
        if sql.is_empty() {
            assert!(got.is_ok(), "an empty script is no statements");
            continue;
        }
        assert_eq!(
            got.unwrap_err().to_string(),
            format!("parse error: {want}"),
            "{sql:?}"
        );
    }
}
