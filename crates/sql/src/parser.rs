//! Recursive-descent SQL parser.
//!
//! The parser reads the [`Lexer`]'s tokens through a window of two (the
//! current token and one of lookahead), so it holds no token vector, and
//! tokens borrow the source. Keywords are compared in place; a name or a
//! string is copied into an owned value only where the AST keeps it.
//! Expressions are parsed by precedence climbing (`expr_bp`), so an
//! operand costs a few calls, not one per precedence level.

use grfusion_common::{Error, Result, Value};

use crate::ast::*;
use crate::lexer::{Lexer, Token, TokenKind};

/// Parse exactly one statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql);
    let parsed = p.statement().and_then(|stmt| {
        p.eat(&TokenKind::Semicolon);
        p.expect_eof()?;
        Ok(stmt)
    });
    p.finish(parsed)
}

/// Parse a semicolon-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql);
    let parsed = p.script();
    p.finish(parsed)
}

struct Parser<'src> {
    lexer: Lexer<'src>,
    /// The token the parser is looking at.
    cur: Token<'src>,
    /// The one token of lookahead.
    next: Token<'src>,
    /// The input's first lexical error. The token stream ends there.
    lex_error: Option<Error>,
    /// Number of `?` parameters seen so far (positional numbering).
    params: u32,
}

impl<'src> Parser<'src> {
    fn new(sql: &'src str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(sql),
            cur: eof(),
            next: eof(),
            lex_error: None,
            params: 0,
        };
        // Fill the window: the first token, then its lookahead.
        p.advance();
        p.advance();
        p
    }

    /// The lexer's next token, or `Eof` from the first lexical error on
    /// (which `finish` then reports).
    fn lex(&mut self) -> Token<'src> {
        if self.lex_error.is_none() {
            match self.lexer.next_token() {
                Ok(token) => return token,
                Err(e) => self.lex_error = Some(e),
            }
        }
        eof()
    }

    /// The outcome of a parse. A lexical error anywhere in the input is
    /// reported before any parse error, as if the whole input had been
    /// lexed first: a failed parse lexes the rest of the input to find one.
    fn finish<T>(mut self, parsed: Result<T>) -> Result<T> {
        if parsed.is_err() {
            while self.lex_error.is_none() && self.next.kind != TokenKind::Eof {
                self.next = self.lex();
            }
        }
        match self.lex_error {
            Some(e) => Err(e),
            None => parsed,
        }
    }

    fn script(&mut self) -> Result<Vec<Statement>> {
        let mut out = Vec::new();
        loop {
            while self.eat(&TokenKind::Semicolon) {}
            if self.at_eof() {
                break;
            }
            out.push(self.statement()?);
            if !self.eat(&TokenKind::Semicolon) {
                break;
            }
        }
        self.expect_eof()?;
        Ok(out)
    }

    // ---- token helpers ----------------------------------------------------

    fn peek(&self) -> &TokenKind<'src> {
        &self.cur.kind
    }

    fn peek_next(&self) -> &TokenKind<'src> {
        &self.next.kind
    }

    fn here(&self) -> String {
        self.span_here().to_string()
    }

    /// Span of the token the parser is looking at.
    fn span_here(&self) -> Span {
        Span {
            line: self.cur.line,
            col: self.cur.col,
        }
    }

    /// Step to the next token (at the end, stay on `Eof`).
    fn advance(&mut self) {
        let next = self.lex();
        self.cur = std::mem::replace(&mut self.next, next);
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<()> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected {what} at {} but found {:?}",
                self.here(),
                self.peek()
            )))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "unexpected trailing input at {}: {:?}",
                self.here(),
                self.peek()
            )))
        }
    }

    /// Case-insensitive keyword check.
    fn at_kw(&self, kw: &str) -> bool {
        is_kw(self.peek(), kw)
    }

    fn next_is_kw(&self, kw: &str) -> bool {
        is_kw(self.peek_next(), kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected `{kw}` at {} but found {:?}",
                self.here(),
                self.peek()
            )))
        }
    }

    /// Consume an identifier (any keyword is acceptable as an identifier in
    /// identifier position — keyword recognition is contextual).
    fn ident(&mut self, what: &str) -> Result<&'src str> {
        match self.peek().ident() {
            Some(s) => {
                self.advance();
                Ok(s)
            }
            None => Err(Error::parse(format!(
                "expected {what} at {} but found {:?}",
                self.here(),
                self.peek()
            ))),
        }
    }

    /// [`Parser::ident`], owned: for a name the AST keeps.
    fn name(&mut self, what: &str) -> Result<String> {
        self.ident(what).map(str::to_owned)
    }

    fn integer(&mut self, what: &str) -> Result<i64> {
        match *self.peek() {
            TokenKind::Integer(i) if i != i64::MIN => {
                self.advance();
                Ok(i)
            }
            _ => Err(Error::parse(format!(
                "expected {what} at {} but found {:?}",
                self.here(),
                self.peek()
            ))),
        }
    }

    // ---- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            let select = self.select()?;
            return Ok(Statement::Explain {
                analyze,
                select: Box::new(select),
            });
        }
        if self.at_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            if self.eat_kw("TABLE") {
                let name = self.name("table name")?;
                return Ok(Statement::DropTable { name });
            }
            self.expect_kw("GRAPH")?;
            self.expect_kw("VIEW")?;
            let name = self.name("graph view name")?;
            return Ok(Statement::DropGraphView { name });
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("BEGIN") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Statement::Rollback);
        }
        Err(Error::parse(format!(
            "unrecognized statement at {}: {:?}",
            self.here(),
            self.peek()
        )))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            return self.create_table();
        }
        // CREATE [UNIQUE] [ORDERED] INDEX
        let mut unique = false;
        let mut ordered = false;
        loop {
            if self.at_kw("UNIQUE") && !unique {
                self.advance();
                unique = true;
            } else if self.at_kw("ORDERED") && !ordered {
                self.advance();
                ordered = true;
            } else {
                break;
            }
        }
        if self.eat_kw("INDEX") {
            let name = self.name("index name")?;
            self.expect_kw("ON")?;
            let table = self.name("table name")?;
            self.expect(&TokenKind::LParen, "`(`")?;
            let column = self.name("column name")?;
            self.expect(&TokenKind::RParen, "`)`")?;
            return Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                column,
                unique,
                ordered,
            }));
        }
        if unique || ordered {
            return Err(Error::parse(format!(
                "expected INDEX after CREATE UNIQUE/ORDERED at {}",
                self.here()
            )));
        }
        // CREATE [UNDIRECTED|DIRECTED] GRAPH VIEW
        // Plain CREATE GRAPH VIEW defaults to directed.
        let directed = !self.eat_kw("UNDIRECTED") && {
            self.eat_kw("DIRECTED");
            true
        };
        self.expect_kw("GRAPH")?;
        self.expect_kw("VIEW")?;
        self.create_graph_view(directed)
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.name("table name")?;
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.name("column name")?;
            let data_type = self.type_name()?;
            let mut primary_key = false;
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                primary_key = true;
            }
            columns.push(ColumnDef {
                name: col_name,
                data_type,
                primary_key,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Statement::CreateTable(CreateTable { name, columns }))
    }

    fn type_name(&mut self) -> Result<TypeName> {
        let t = self.ident("type name")?;
        let is = |names: &[&str]| names.iter().any(|n| t.eq_ignore_ascii_case(n));
        let ty = if is(&["INTEGER", "INT", "BIGINT"]) {
            TypeName::Integer
        } else if is(&["DOUBLE", "FLOAT", "REAL"]) {
            TypeName::Double
        } else if is(&["BOOLEAN", "BOOL"]) {
            TypeName::Boolean
        } else if is(&["VARCHAR", "STRING", "TEXT"]) {
            TypeName::Varchar
        } else {
            return Err(Error::parse(format!(
                "unknown type name `{}`",
                t.to_ascii_uppercase()
            )));
        };
        // Optional length like VARCHAR(32) — accepted and ignored.
        if self.eat(&TokenKind::LParen) {
            self.integer("type length")?;
            self.expect(&TokenKind::RParen, "`)`")?;
        }
        Ok(ty)
    }

    /// `VERTEXES(ID = col, attr = col, ...) FROM src EDGES(ID = col,
    /// FROM = col, TO = col, attr = col, ...) FROM src`
    fn create_graph_view(&mut self, directed: bool) -> Result<Statement> {
        let name = self.name("graph view name")?;
        self.expect_kw("VERTEXES")?;
        let (vertex_pairs, vertex_source) = self.mapping_clause()?;
        self.expect_kw("EDGES")?;
        let (edge_pairs, edge_source) = self.mapping_clause()?;

        let mut vertex_id = None;
        let mut vertex_attrs = Vec::new();
        for (k, v) in vertex_pairs {
            if k.eq_ignore_ascii_case("ID") {
                if vertex_id.replace(v).is_some() {
                    return Err(Error::parse("duplicate ID mapping in VERTEXES clause"));
                }
            } else {
                vertex_attrs.push((k, v));
            }
        }
        let vertex_id =
            vertex_id.ok_or_else(|| Error::parse("VERTEXES clause requires an ID mapping"))?;

        let (mut edge_id, mut edge_from, mut edge_to) = (None, None, None);
        let mut edge_attrs = Vec::new();
        for (k, v) in edge_pairs {
            if k.eq_ignore_ascii_case("ID") {
                if edge_id.replace(v).is_some() {
                    return Err(Error::parse("duplicate ID mapping in EDGES clause"));
                }
            } else if k.eq_ignore_ascii_case("FROM") {
                if edge_from.replace(v).is_some() {
                    return Err(Error::parse("duplicate FROM mapping in EDGES clause"));
                }
            } else if k.eq_ignore_ascii_case("TO") {
                if edge_to.replace(v).is_some() {
                    return Err(Error::parse("duplicate TO mapping in EDGES clause"));
                }
            } else {
                edge_attrs.push((k, v));
            }
        }
        let edge_id = edge_id.ok_or_else(|| Error::parse("EDGES clause requires an ID mapping"))?;
        let edge_from =
            edge_from.ok_or_else(|| Error::parse("EDGES clause requires a FROM mapping"))?;
        let edge_to = edge_to.ok_or_else(|| Error::parse("EDGES clause requires a TO mapping"))?;

        Ok(Statement::CreateGraphView(CreateGraphView {
            name,
            directed,
            vertex_id,
            vertex_attrs,
            vertex_source,
            edge_id,
            edge_from,
            edge_to,
            edge_attrs,
            edge_source,
        }))
    }

    /// `(a = b, c = d, ...) FROM source`
    fn mapping_clause(&mut self) -> Result<(Vec<(String, String)>, String)> {
        self.expect(&TokenKind::LParen, "`(`")?;
        let mut pairs = Vec::new();
        loop {
            let key = self.name("attribute name")?;
            self.expect(&TokenKind::Eq, "`=`")?;
            let value = self.name("source column")?;
            pairs.push((key, value));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RParen, "`)`")?;
        self.expect_kw("FROM")?;
        let source = self.name("relational source")?;
        Ok((pairs, source))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.name("table name")?;
        let columns = if self.eat(&TokenKind::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.name("column name")?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
            Some(cols)
        } else {
            None
        };
        if self.at_kw("SELECT") {
            let select = self.select()?;
            return Ok(Statement::Insert(Insert {
                table,
                columns,
                source: InsertSource::Select(Box::new(select)),
            }));
        }
        self.expect_kw("VALUES")?;
        let mut rows: Vec<Vec<Expr>> = Vec::new();
        loop {
            self.expect(&TokenKind::LParen, "`(`")?;
            // Rows of one INSERT are as wide as each other, as a rule.
            let mut row = Vec::with_capacity(rows.last().map_or(0, Vec::len));
            loop {
                row.push(self.value_item()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
            rows.push(row);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            source: InsertSource::Values(rows),
        }))
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.name("table name")?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.name("column name")?;
            self.expect(&TokenKind::Eq, "`=`")?;
            assignments.push((col, self.expr()?));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            assignments,
            selection,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.name("table name")?;
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete { table, selection }))
    }

    // ---- SELECT ---------------------------------------------------------------

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        // `SELECT TOP n` (paper Listing 6)
        let mut limit = None;
        if self.at_kw("TOP") && matches!(self.peek_next(), TokenKind::Integer(_)) {
            self.advance();
            limit = Some(self.integer("TOP count")? as u64);
        }
        let mut projections = Vec::new();
        loop {
            if self.eat(&TokenKind::Star) {
                projections.push(SelectItem::Wildcard);
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS") {
                    Some(self.name("alias")?)
                } else {
                    None
                };
                projections.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect_kw("FROM")?;
        let mut from = Vec::new();
        let mut join_conditions: Vec<Expr> = Vec::new();
        loop {
            from.push(self.from_item()?);
            // `[INNER] JOIN item ON cond` desugars to a comma join with the
            // condition AND-ed into the WHERE clause (the paper writes its
            // queries in the comma form; both are accepted).
            loop {
                let inner = self.at_kw("INNER") && self.next_is_kw("JOIN");
                if inner {
                    self.advance();
                }
                if !self.eat_kw("JOIN") {
                    break;
                }
                from.push(self.from_item()?);
                self.expect_kw("ON")?;
                join_conditions.push(self.expr()?);
            }
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let mut selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        for cond in join_conditions {
            selection = Expr::and_opt(selection, Some(cond));
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push((e, asc));
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            let n = self.integer("LIMIT count")?;
            if n < 0 {
                return Err(Error::parse("LIMIT must be non-negative"));
            }
            limit = Some(n as u64);
        }
        Ok(Select {
            distinct,
            projections,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    #[allow(clippy::wrong_self_convention)] // parses a FROM item; not a conversion
    fn from_item(&mut self) -> Result<FromItem> {
        let first = self.ident("table or graph view name")?;
        let item = if self.eat(&TokenKind::Dot) {
            let second = self.ident("PATHS, VERTEXES, or EDGES")?;
            let alias = self.opt_alias();
            let graph = Name::from(first);
            if second.eq_ignore_ascii_case("PATHS") {
                let hint = self.opt_hint()?;
                FromItem::GraphPaths { graph, alias, hint }
            } else if second.eq_ignore_ascii_case("VERTEXES")
                || second.eq_ignore_ascii_case("VERTICES")
            {
                FromItem::GraphVertexes { graph, alias }
            } else if second.eq_ignore_ascii_case("EDGES") {
                FromItem::GraphEdges { graph, alias }
            } else {
                return Err(Error::parse(format!(
                    "expected PATHS, VERTEXES, or EDGES after `{first}.` but found `{}`",
                    second.to_ascii_uppercase()
                )));
            }
        } else {
            let alias = self.opt_alias();
            FromItem::Table {
                name: Name::from(first),
                alias,
            }
        };
        Ok(item)
    }

    /// Optional `[AS] alias` — an identifier that is not a clause keyword.
    fn opt_alias(&mut self) -> Option<Name> {
        if self.eat_kw("AS") {
            return self.ident("alias").ok().map(Name::from);
        }
        const STOPPERS: &[&str] = &[
            "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "HINT", "ON", "FROM", "SELECT",
            "UNION", "AND", "OR", "JOIN", "INNER",
        ];
        let alias = self.peek().ident()?;
        if STOPPERS.iter().any(|k| alias.eq_ignore_ascii_case(k)) {
            return None;
        }
        self.advance();
        Some(Name::from(alias))
    }

    /// Optional `HINT(SHORTESTPATH(attr))` / `HINT(DFS)` / `HINT(BFS)`.
    fn opt_hint(&mut self) -> Result<Option<PathHint>> {
        if !self.eat_kw("HINT") {
            return Ok(None);
        }
        self.expect(&TokenKind::LParen, "`(`")?;
        let kind = self.ident("hint name")?;
        let hint = if kind.eq_ignore_ascii_case("SHORTESTPATH") {
            self.expect(&TokenKind::LParen, "`(`")?;
            let cost_attr = self.name("cost attribute")?;
            self.expect(&TokenKind::RParen, "`)`")?;
            PathHint::ShortestPath { cost_attr }
        } else if kind.eq_ignore_ascii_case("DFS") {
            PathHint::Dfs
        } else if kind.eq_ignore_ascii_case("BFS") {
            PathHint::Bfs
        } else {
            return Err(Error::parse(format!(
                "unknown hint `{}`",
                kind.to_ascii_uppercase()
            )));
        };
        self.expect(&TokenKind::RParen, "`)`")?;
        Ok(Some(hint))
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.expr_bp(OR_BP)
    }

    /// An expression whose infix operators all bind at least as tightly as
    /// `min` (precedence climbing over the binding powers below). An
    /// operator applies to the operand on its left only if it binds no more
    /// tightly than every operator already at that operand's top — as
    /// tightly, for the left-associative ones — so a comparison never
    /// chains and never follows `NOT`, `IN (...)` or `BETWEEN`.
    fn expr_bp(&mut self, min: u8) -> Result<Expr> {
        let (mut left, mut left_bp) = if min <= NOT_BP && self.eat_kw("NOT") {
            let inner = self.expr_bp(NOT_BP)?;
            let not = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            };
            (not, NOT_BP)
        } else {
            (self.unary()?, ATOM_BP)
        };
        loop {
            let bp = self.infix_bp();
            if bp < min || bp > left_bp || (bp == left_bp && bp == CMP_BP) {
                return Ok(left);
            }
            left = if bp == CMP_BP {
                self.comparison(left)?
            } else {
                self.binary(left, bp)?
            };
            left_bp = bp;
        }
    }

    /// The binding power of the infix operator the parser is on (0: none).
    fn infix_bp(&self) -> u8 {
        match self.peek() {
            TokenKind::Eq
            | TokenKind::NotEq
            | TokenKind::Lt
            | TokenKind::LtEq
            | TokenKind::Gt
            | TokenKind::GtEq => CMP_BP,
            TokenKind::Plus | TokenKind::Minus => ADD_BP,
            TokenKind::Star | TokenKind::Slash | TokenKind::Percent => MUL_BP,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("OR") => OR_BP,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("AND") => AND_BP,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("IN") => CMP_BP,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("BETWEEN") => CMP_BP,
            TokenKind::Ident(s)
                if s.eq_ignore_ascii_case("NOT")
                    && (self.next_is_kw("IN") || self.next_is_kw("BETWEEN")) =>
            {
                CMP_BP
            }
            _ => 0,
        }
    }

    /// `left op right` for a logical or arithmetic operator of binding
    /// power `bp`, left-associative: the right operand binds more tightly.
    fn binary(&mut self, left: Expr, bp: u8) -> Result<Expr> {
        let op = match self.peek() {
            TokenKind::Plus => BinaryOp::Add,
            TokenKind::Minus => BinaryOp::Sub,
            TokenKind::Star => BinaryOp::Mul,
            TokenKind::Slash => BinaryOp::Div,
            TokenKind::Percent => BinaryOp::Mod,
            _ if bp == OR_BP => BinaryOp::Or,
            _ => BinaryOp::And,
        };
        self.advance();
        let right = self.expr_bp(bp + 1)?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    /// The one comparison `left` takes: `[NOT] IN (...)`, `[NOT] BETWEEN`,
    /// or a comparison operator, each over additive operands.
    fn comparison(&mut self, left: Expr) -> Result<Expr> {
        // `infix_bp` saw IN or BETWEEN after a NOT.
        let negated = self.eat_kw("NOT");
        if self.eat_kw("IN") {
            self.expect(&TokenKind::LParen, "`(`")?;
            if self.at_kw("SELECT") {
                let select = self.select()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    select: Box::new(select),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.expr_bp(ADD_BP)?;
            self.expect_kw("AND")?;
            let high = self.expr_bp(ADD_BP)?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        let op = match self.peek() {
            TokenKind::Eq => BinaryOp::Eq,
            TokenKind::NotEq => BinaryOp::NotEq,
            TokenKind::Lt => BinaryOp::Lt,
            TokenKind::LtEq => BinaryOp::LtEq,
            TokenKind::Gt => BinaryOp::Gt,
            TokenKind::GtEq => BinaryOp::GtEq,
            _ => {
                return Err(Error::parse(format!(
                    "expected IN or BETWEEN after NOT at {}",
                    self.here()
                )))
            }
        };
        self.advance();
        let right = self.expr_bp(ADD_BP)?;
        Ok(Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        })
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            // The magnitude 2^63 is a literal only here: `-9223372036854775808`
            // is `i64::MIN`.
            if *self.peek() == TokenKind::Integer(i64::MIN) {
                self.advance();
                return Ok(Expr::Literal(Value::Integer(i64::MIN)));
            }
            // Fold negative literals immediately.
            match self.unary()? {
                Expr::Literal(Value::Integer(i)) if i != i64::MIN => {
                    Ok(Expr::Literal(Value::Integer(-i)))
                }
                Expr::Literal(Value::Double(d)) => Ok(Expr::Literal(Value::Double(-d))),
                inner => Ok(Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(inner),
                }),
            }
        } else if self.eat(&TokenKind::Plus) {
            self.unary()
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        if let Some(value) = self.literal() {
            self.advance();
            return Ok(Expr::Literal(value));
        }
        match self.peek() {
            // Only a minus makes the magnitude 2^63 a literal (`unary`).
            TokenKind::Integer(_) => Err(Error::parse(format!(
                "bad integer `{}` at {}",
                i64::MIN.unsigned_abs(),
                self.here()
            ))),
            TokenKind::Question => {
                self.advance();
                let i = self.params;
                self.params += 1;
                Ok(Expr::Parameter(i))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(name) if matches!(self.peek_next(), TokenKind::LParen) => {
                let name = *name;
                self.call(name)
            }
            TokenKind::Ident(_) => self.compound_ref(),
            other => Err(Error::parse(format!(
                "unexpected token {other:?} at {} in expression",
                self.here()
            ))),
        }
    }

    /// The value of the literal the parser is on: a number, a string, or
    /// `TRUE`, `FALSE` or `NULL`.
    fn literal(&self) -> Option<Value> {
        Some(match self.peek() {
            TokenKind::Integer(i) if *i != i64::MIN => Value::Integer(*i),
            TokenKind::Double(d) => Value::Double(*d),
            TokenKind::StringLit(s) => Value::text(s),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("TRUE") => Value::Boolean(true),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("FALSE") => Value::Boolean(false),
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("NULL") => Value::Null,
            _ => return None,
        })
    }

    /// One VALUES item. A lone literal, which is what a bulk INSERT is made
    /// of, is taken as it is, without the descent through every precedence
    /// level that `expr` would make to the same result.
    fn value_item(&mut self) -> Result<Expr> {
        if matches!(self.peek_next(), TokenKind::Comma | TokenKind::RParen) {
            if let Some(value) = self.literal() {
                self.advance();
                return Ok(Expr::Literal(value));
            }
        }
        self.expr()
    }

    /// A function call `name(*)` or `name(args...)`; the parser is on
    /// `name`.
    fn call(&mut self, name: &str) -> Result<Expr> {
        self.advance(); // name
        self.advance(); // (
        let name = Name::from(name);
        if self.eat(&TokenKind::Star) {
            self.expect(&TokenKind::RParen, "`)`")?;
            return Ok(Expr::Function {
                name,
                args: Vec::new(),
                star: true,
            });
        }
        let mut args = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen, "`)`")?;
        }
        Ok(Expr::Function {
            name,
            args,
            star: false,
        })
    }

    /// `ident [ '[' range ']' ] ( '.' ident [ '[' range ']' ] )*`
    fn compound_ref(&mut self) -> Result<Expr> {
        let mut parts = Vec::new();
        loop {
            let span = self.span_here();
            let name = Name::from(self.ident("identifier")?);
            let index = if self.eat(&TokenKind::LBracket) {
                let start = self.integer("index")? as u64;
                let end = if self.eat(&TokenKind::DotDot) {
                    if self.eat(&TokenKind::Star) {
                        IndexEnd::Star
                    } else {
                        IndexEnd::Bounded(self.integer("range end")? as u64)
                    }
                } else {
                    IndexEnd::At
                };
                self.expect(&TokenKind::RBracket, "`]`")?;
                Some(IndexRange { start, end })
            } else {
                None
            };
            parts.push(RefPart { name, index, span });
            if !self.eat(&TokenKind::Dot) {
                break;
            }
        }
        Ok(Expr::CompoundRef(parts))
    }
}

/// A placeholder `Eof`, positioned nowhere: what the window holds before
/// the first token and after a lexical error.
fn eof<'src>() -> Token<'src> {
    Token {
        kind: TokenKind::Eof,
        line: 0,
        col: 0,
    }
}

/// Binding powers of the infix operators, loosest first; `NOT` is the
/// prefix between `AND` and the comparisons.
const OR_BP: u8 = 1;
const AND_BP: u8 = 2;
const NOT_BP: u8 = 3;
const CMP_BP: u8 = 4;
const ADD_BP: u8 = 5;
const MUL_BP: u8 = 6;
/// An operand with no infix operator at its top.
const ATOM_BP: u8 = u8::MAX;

/// Whether `kind` is the keyword `kw`, in any case.
fn is_kw(kind: &TokenKind, kw: &str) -> bool {
    kind.ident().is_some_and(|s| s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected select, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t WHERE a = 1 LIMIT 5");
        assert_eq!(s.projections.len(), 2);
        assert_eq!(s.from.len(), 1);
        assert!(s.selection.is_some());
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn select_star() {
        let s = sel("SELECT * FROM t");
        assert_eq!(s.projections, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn explain_and_explain_analyze() {
        let Statement::Explain { analyze, select } =
            parse_statement("EXPLAIN SELECT a FROM t").unwrap()
        else {
            panic!("expected explain");
        };
        assert!(!analyze);
        assert_eq!(select.projections.len(), 1);
        let Statement::Explain { analyze, select } =
            parse_statement("EXPLAIN ANALYZE SELECT * FROM gv.PATHS WHERE PATHS.Length = 2")
                .unwrap()
        else {
            panic!("expected explain analyze");
        };
        assert!(analyze);
        assert!(select.selection.is_some());
        // EXPLAIN is contextual, not reserved: still valid as an identifier.
        let s = sel("SELECT explain FROM t");
        assert_eq!(s.projections.len(), 1);
    }

    #[test]
    fn paper_listing_1_create_graph_view() {
        let sql = "CREATE UNDIRECTED GRAPH VIEW SocialNetwork \
                   VERTEXES(ID = uid, lstname = lname, birthdate = dob) FROM Users \
                   EDGES (ID = relid, FROM = uid, TO = uid2, sdate = startdate, relative = isrelative) FROM Relationships";
        let Statement::CreateGraphView(gv) = parse_statement(sql).unwrap() else {
            panic!("wrong statement kind");
        };
        assert_eq!(gv.name, "SocialNetwork");
        assert!(!gv.directed);
        assert_eq!(gv.vertex_id, "uid");
        assert_eq!(
            gv.vertex_attrs,
            vec![
                ("lstname".to_string(), "lname".to_string()),
                ("birthdate".to_string(), "dob".to_string())
            ]
        );
        assert_eq!(gv.vertex_source, "Users");
        assert_eq!(gv.edge_id, "relid");
        assert_eq!(gv.edge_from, "uid");
        assert_eq!(gv.edge_to, "uid2");
        assert_eq!(gv.edge_attrs.len(), 2);
        assert_eq!(gv.edge_source, "Relationships");
    }

    #[test]
    fn graph_view_requires_id_from_to() {
        let sql = "CREATE GRAPH VIEW g VERTEXES(ID = a) FROM v EDGES(ID = b, FROM = c) FROM e";
        assert!(parse_statement(sql).is_err());
        let sql = "CREATE GRAPH VIEW g VERTEXES(x = a) FROM v EDGES(ID = b, FROM = c, TO = d) FROM e";
        assert!(parse_statement(sql).is_err());
    }

    #[test]
    fn paper_listing_2_friends_of_friends() {
        let s = sel("SELECT PS.EndVertex.lstName FROM Users U, SocialNetwork.Paths PS \
                     WHERE U.Job = 'Lawyer' AND PS.StartVertex.Id = U.uId AND PS.Length = 2 \
                     AND PS.Edges[0..*].StartDate > '1/1/2000'");
        assert_eq!(s.from.len(), 2);
        assert_eq!(
            s.from[1],
            FromItem::GraphPaths {
                graph: "SocialNetwork".into(),
                alias: Some("PS".into()),
                hint: None
            }
        );
        // projection is a compound ref PS.EndVertex.lstName
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!();
        };
        let Expr::CompoundRef(parts) = expr else { panic!() };
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].name, "PS");
        assert_eq!(parts[1].name, "EndVertex");
        assert_eq!(parts[2].name, "lstName");
    }

    #[test]
    fn paper_listing_3_reachability() {
        let s = sel("SELECT PS.PathString FROM Proteins Pr, Proteins Pr2, BioNetwork.Paths PS \
                     WHERE Pr.Name = 'Protein X' AND Pr2.Name = 'Protein Y' \
                     AND PS.StartVertex.Id = Pr.Id AND PS.EndVertex.Id = Pr2.Id \
                     AND PS.Edges[0..*].Type IN ('covalent', 'stable') LIMIT 1");
        assert_eq!(s.limit, Some(1));
        assert_eq!(s.from.len(), 3);
        // find the IN predicate
        let conj = s.selection.as_ref().unwrap().conjuncts();
        assert_eq!(conj.len(), 5);
        let Expr::InList { list, negated, .. } = &conj[4] else {
            panic!("expected IN, got {:?}", conj[4]);
        };
        assert!(!negated);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn paper_listing_4_triangles() {
        let s = sel("SELECT Count(P) FROM MLGraph.Paths P Where P.Length = 3 \
                     AND P.Edges[0].Label = 'A' AND P.Edges[1].Label = 'B' \
                     AND P.Edges[2].Label = 'C' AND P.Edges[2].EndVertex = P.Edges[0].StartVertex");
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!();
        };
        let Expr::Function { name, args, star } = expr else {
            panic!()
        };
        assert!(name.eq_ignore_ascii_case("count"));
        assert!(!star);
        assert_eq!(args.len(), 1);
        // last conjunct compares two indexed refs
        let conj = s.selection.as_ref().unwrap().conjuncts();
        let Expr::Binary { left, op, right } = conj.last().unwrap() else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Eq);
        let Expr::CompoundRef(l) = left.as_ref() else { panic!() };
        assert_eq!(
            l[1].index,
            Some(IndexRange {
                start: 2,
                end: IndexEnd::At
            })
        );
        assert_eq!(l[2].name, "EndVertex");
        let Expr::CompoundRef(r) = right.as_ref() else { panic!() };
        assert_eq!(r[2].name, "StartVertex");
    }

    #[test]
    fn paper_listing_5_vertex_scan() {
        let s = sel("SELECT VS.birthdate, VS.fanOut FROM SocialNetwork.Vertexes VS \
                     WHERE VS.lstName = 'Smith'");
        assert_eq!(
            s.from[0],
            FromItem::GraphVertexes {
                graph: "SocialNetwork".into(),
                alias: Some("VS".into())
            }
        );
    }

    #[test]
    fn paper_listing_6_shortest_path_hint() {
        let s = sel("SELECT TOP 2 PS FROM RoadNetwork.Paths PS HINT(SHORTESTPATH (Distance)), \
                     RoadNetwork.Vertexes Src, RoadNetwork.Vertexes Dest \
                     WHERE PS.StartVertex.Id = Src.Id AND PS.EndVertex.Id = Dest.Id \
                     AND Src.Address = \"Address 1\" AND Dest.Address = \"Address 2\"");
        assert_eq!(s.limit, Some(2));
        assert_eq!(
            s.from[0],
            FromItem::GraphPaths {
                graph: "RoadNetwork".into(),
                alias: Some("PS".into()),
                hint: Some(PathHint::ShortestPath {
                    cost_attr: "Distance".into()
                })
            }
        );
        assert_eq!(s.from.len(), 3);
    }

    #[test]
    fn dfs_bfs_hints() {
        let s = sel("SELECT * FROM g.Paths P HINT(DFS) WHERE P.Length = 2");
        let FromItem::GraphPaths { hint, .. } = &s.from[0] else {
            panic!()
        };
        assert_eq!(*hint, Some(PathHint::Dfs));
        let s = sel("SELECT * FROM g.Paths P HINT(BFS)");
        let FromItem::GraphPaths { hint, .. } = &s.from[0] else {
            panic!()
        };
        assert_eq!(*hint, Some(PathHint::Bfs));
    }

    #[test]
    fn path_aggregate_expression() {
        let s = sel("SELECT SUM(PS.Edges.Weight) FROM g.Paths PS WHERE SUM(PS.Edges.Weight) < 10");
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        let Expr::Function { name, args, .. } = expr else { panic!() };
        assert!(name.eq_ignore_ascii_case("sum"));
        let Expr::CompoundRef(parts) = &args[0] else { panic!() };
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn insert_statement() {
        let st = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
        )
        .unwrap();
        let Statement::Insert(ins) = st else { panic!() };
        assert_eq!(ins.columns, Some(vec!["a".into(), "b".into()]));
        let InsertSource::Values(rows) = &ins.source else { panic!() };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][1], Expr::Literal(Value::Null));
    }

    #[test]
    fn negative_literal_folds() {
        let st = parse_statement("INSERT INTO t VALUES (-5, -2.5)").unwrap();
        let Statement::Insert(ins) = st else { panic!() };
        let InsertSource::Values(rows) = &ins.source else { panic!() };
        assert_eq!(rows[0][0], Expr::Literal(Value::Integer(-5)));
        assert_eq!(rows[0][1], Expr::Literal(Value::Double(-2.5)));
    }

    #[test]
    fn i64_min_is_a_literal() {
        let min = Expr::Literal(Value::Integer(i64::MIN));
        let s = sel("SELECT id FROM t WHERE id = -9223372036854775808");
        assert_eq!(
            s.selection,
            Some(Expr::Binary {
                left: Box::new(Expr::CompoundRef(vec![RefPart::plain("id")])),
                op: BinaryOp::Eq,
                right: Box::new(min.clone()),
            })
        );
        // Negating it again overflows: that is left to evaluation.
        let s = sel("SELECT - -9223372036854775808 FROM t");
        assert_eq!(
            s.projections,
            vec![SelectItem::Expr {
                expr: Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(min),
                },
                alias: None,
            }]
        );
        // The magnitude alone is out of range, as is anything larger.
        for sql in [
            "SELECT 9223372036854775808 FROM t",
            "SELECT 1 -9223372036854775808 FROM t",
            "SELECT -9223372036854775809 FROM t",
        ] {
            assert!(parse_statement(sql).is_err(), "{sql}");
        }
    }

    #[test]
    fn update_delete() {
        let st = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3").unwrap();
        let Statement::Update(u) = st else { panic!() };
        assert_eq!(u.assignments.len(), 2);
        assert!(u.selection.is_some());
        let st = parse_statement("DELETE FROM t WHERE id = 3").unwrap();
        let Statement::Delete(d) = st else { panic!() };
        assert!(d.selection.is_some());
    }

    #[test]
    fn create_table_with_types() {
        let st = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(32), w DOUBLE, ok BOOLEAN)",
        )
        .unwrap();
        let Statement::CreateTable(ct) = st else { panic!() };
        assert_eq!(ct.columns.len(), 4);
        assert!(ct.columns[0].primary_key);
        assert_eq!(ct.columns[2].data_type, TypeName::Double);
    }

    #[test]
    fn create_index_variants() {
        let st = parse_statement("CREATE UNIQUE INDEX pk ON t (id)").unwrap();
        let Statement::CreateIndex(ix) = st else { panic!() };
        assert!(ix.unique && !ix.ordered);
        let st = parse_statement("CREATE ORDERED INDEX rng ON t (w)").unwrap();
        let Statement::CreateIndex(ix) = st else { panic!() };
        assert!(!ix.unique && ix.ordered);
    }

    #[test]
    fn operator_precedence() {
        // a OR b AND c  parses as  a OR (b AND c)
        let s = sel("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3");
        let Expr::Binary { op, .. } = s.selection.unwrap() else {
            panic!()
        };
        assert_eq!(op, BinaryOp::Or);
        // arithmetic precedence: 1 + 2 * 3
        let s = sel("SELECT 1 + 2 * 3 FROM t");
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        let Expr::Binary { op, right, .. } = expr else { panic!() };
        assert_eq!(*op, BinaryOp::Add);
        let Expr::Binary { op, .. } = right.as_ref() else { panic!() };
        assert_eq!(*op, BinaryOp::Mul);
    }

    #[test]
    fn not_and_between() {
        let s = sel("SELECT * FROM t WHERE NOT a = 1 AND b BETWEEN 2 AND 5 AND c NOT IN (1, 2)");
        let conj = s.selection.as_ref().unwrap().conjuncts();
        assert!(matches!(conj[0], Expr::Unary { op: UnaryOp::Not, .. }));
        assert!(matches!(
            conj[1],
            Expr::Between { negated: false, .. }
        ));
        assert!(matches!(conj[2], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn group_by_having_order_by() {
        let s = sel("SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC, b");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(!s.order_by[0].1); // DESC
        assert!(s.order_by[1].1); // default ASC
    }

    #[test]
    fn multiple_statements() {
        let stmts =
            parse_statements("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn transactions() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn drop_statements() {
        assert_eq!(
            parse_statement("DROP TABLE t").unwrap(),
            Statement::DropTable { name: "t".into() }
        );
        assert_eq!(
            parse_statement("DROP GRAPH VIEW g").unwrap(),
            Statement::DropGraphView { name: "g".into() }
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        let e = parse_statement("SELECT FROM").unwrap_err();
        assert!(e.to_string().contains("parse error"));
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("CREATE GRAPH VIEW").is_err());
        assert!(parse_statement("SELECT a FROM t extra garbage ,").is_err());
    }

    #[test]
    fn vertices_spelling_accepted() {
        let s = sel("SELECT * FROM g.Vertices v");
        assert!(matches!(s.from[0], FromItem::GraphVertexes { .. }));
    }

    #[test]
    fn bare_path_projection() {
        // `SELECT TOP 2 PS FROM ...` — PS projects the whole path value.
        let s = sel("SELECT TOP 2 PS FROM g.Paths PS");
        let SelectItem::Expr { expr, .. } = &s.projections[0] else {
            panic!()
        };
        assert_eq!(
            *expr,
            Expr::CompoundRef(vec![RefPart::plain("PS")])
        );
        assert_eq!(s.limit, Some(2));
    }
}
