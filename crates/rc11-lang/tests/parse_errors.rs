//! Parser error reporting: every rejection carries the 1-based line/column
//! of the offending token and a message naming the offence. These tests
//! pin both, so error spans cannot silently drift.

use rc11_lang::parse::{parse_litmus, ParseError};

fn err(src: &str) -> ParseError {
    parse_litmus(src).expect_err("source must be rejected")
}

#[test]
fn malformed_annotation_is_rejected_at_the_equals_sign() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 x =rlx 1;\n\
                 }\n\
                 observe T.x\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 5));
    assert!(
        e.msg.contains("unknown access annotation `=rlx`"),
        "message must name the bad annotation: {}",
        e.msg
    );
    assert!(e.msg.contains("`=rel` or `=acq`"), "message must list the valid ones: {}", e.msg);
}

#[test]
fn undeclared_shared_variable_is_rejected_at_its_use() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 =acq zz;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 11));
    assert!(e.msg.contains("undeclared shared variable `zz`"), "{}", e.msg);
}

#[test]
fn undeclared_register_in_an_expression_is_rejected() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = r9 + 1;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("undeclared variable or register `r9`"), "{}", e.msg);
    assert!(
        e.msg.contains("assigned before first use"),
        "message must explain the register rule: {}",
        e.msg
    );
}

#[test]
fn duplicate_thread_name_is_rejected_at_the_second_declaration() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T { r = x; }\n\
                 thread T { r = x; }\n\
                 observe T.r\n\
                 expected { (0) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("duplicate thread name `T`"), "{}", e.msg);
}

#[test]
fn wrong_expected_tuple_arity_is_rejected_at_the_tuple() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = x;\n\
                 \x20 r2 = x;\n\
                 }\n\
                 observe T.r1 T.r2\n\
                 expected {\n\
                 \x20 (0, 0, 0)\n\
                 }\n");
    assert_eq!((e.span.line, e.span.col), (9, 3));
    assert!(
        e.msg.contains("outcome tuple has 3 values but `observe` names 2 registers"),
        "{}",
        e.msg
    );
}

#[test]
fn unknown_method_is_rejected_at_the_method_name() {
    let e = err("litmus \"e\"\n\
                 stack s\n\
                 thread T {\n\
                 \x20 s.psuh(1);\n\
                 \x20 r = s.pop();\n\
                 }\n\
                 observe T.r\n\
                 expected { (empty) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 5));
    assert!(e.msg.contains("no method `psuh`"), "{}", e.msg);
}

#[test]
fn observing_an_unknown_thread_or_register_is_rejected() {
    let base = "litmus \"e\"\n\
                var x = 0\n\
                thread T { r = x; }\n";
    let e = err(&format!("{base}observe Z.r\nexpected {{ (0) }}\n"));
    assert_eq!((e.span.line, e.span.col), (4, 9));
    assert!(e.msg.contains("unknown thread `Z`"), "{}", e.msg);

    let e = err(&format!("{base}observe T.r9\nexpected {{ (0) }}\n"));
    assert_eq!((e.span.line, e.span.col), (4, 11));
    assert!(e.msg.contains("thread `T` has no register `r9`"), "{}", e.msg);
}

#[test]
fn shared_variables_cannot_appear_inside_expressions() {
    let e = err("litmus \"e\"\n\
                 var x = 0\n\
                 thread T {\n\
                 \x20 r1 = x + 1;\n\
                 }\n\
                 observe T.r1\n\
                 expected { (1) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 8));
    assert!(e.msg.contains("read it into a register first"), "{}", e.msg);
}

#[test]
fn binding_the_result_of_a_void_method_is_rejected() {
    let e = err("litmus \"e\"\n\
                 stack s\n\
                 thread T {\n\
                 \x20 r = s.push(1);\n\
                 }\n\
                 observe T.r\n\
                 expected { (bot) }\n");
    assert_eq!((e.span.line, e.span.col), (4, 9));
    assert!(e.msg.contains("method `push` returns no value"), "{}", e.msg);
}

#[test]
fn assignments_need_no_space_after_the_equals_sign() {
    // `r1=x` must lex as an assignment, not a malformed annotation; only
    // annotation-like names (`rlx`, `sc`, …) get the annotation error.
    let p = rc11_lang::parse::parse_litmus(
        "litmus \"e\"\n\
         var x = 0\n\
         thread T {\n\
         \x20 r1=x;\n\
         \x20 r2=r1;\n\
         \x20 r3=true;\n\
         }\n\
         observe T.r1 T.r2 T.r3\n\
         expected { (0, 0, true) }\n",
    )
    .expect("glued assignments parse");
    assert_eq!(p.prog.threads[0].n_regs, 3);

    let e = err("litmus \"e\"\nvar x = 0\nthread T { x =sc 1; }\nobserve T.x\nexpected {}\n");
    assert!(e.msg.contains("unknown access annotation `=sc`"), "{}", e.msg);
}

#[test]
fn lexer_errors_carry_spans_too() {
    let e = err("litmus \"e\"\nvar x = @\n");
    assert_eq!((e.span.line, e.span.col), (2, 9));
    assert!(e.msg.contains("unexpected character `@`"), "{}", e.msg);
}

#[test]
fn error_display_is_line_colon_column() {
    let e = err("litmus \"e\"\nvar x = @\n");
    assert_eq!(e.to_string(), "2:9: unexpected character `@`");
}

/// A one-thread litmus test whose thread body is `body`.
fn with_body(body: &str) -> String {
    format!(
        "litmus \"deep\"\nvar x = 0\nthread T {{\n{body}\n}}\nobserve T.r\nexpected {{ (0) }}\n"
    )
}

/// Hostile nesting is a span-carrying parse error, never a stack
/// overflow (which would abort the process — `catch_unwind` cannot
/// contain it). Each input below recurses once per level in a naive
/// recursive-descent parser or in the passes that walk its result.
#[test]
fn hostile_nesting_is_rejected_not_a_stack_overflow() {
    use rc11_lang::parse::MAX_NESTING;
    let n = 200_000;
    let cases = [
        ("parentheses", with_body(&format!("r = {}0{};", "(".repeat(n), ")".repeat(n)))),
        ("negations", with_body(&format!("r = {}true;", "!".repeat(n)))),
        ("minus signs", with_body(&format!("r = {}1;", "- ".repeat(n)))),
        ("an operator chain", with_body(&format!("r = 0{};", " + 1".repeat(n)))),
        ("a conjunction chain", with_body(&format!("r = true{};", " && true".repeat(n)))),
        (
            "blocks",
            with_body(&format!("r = 0; {}{}", "if (true) { ".repeat(n), "}".repeat(n))),
        ),
    ];
    for (what, src) in cases {
        let e = err(&src);
        assert!(e.msg.contains(&format!("{MAX_NESTING} levels")), "{what}: {}", e.msg);
        assert_eq!(e.span.line, 4, "{what}: the error points into the thread body");
    }
}

/// Nesting up to the cap still parses: the limit is far above anything a
/// hand-written test needs, and below it nothing changes.
#[test]
fn nesting_below_the_cap_still_parses() {
    let depth = 100;
    let src = with_body(&format!("r = {}0{};", "(".repeat(depth), " + 1)".repeat(depth)));
    parse_litmus(&src).unwrap_or_else(|e| panic!("{e}"));
    let src = with_body(&format!("r = 0; {}{}", "if (true) { ".repeat(depth), "}".repeat(depth)));
    parse_litmus(&src).unwrap_or_else(|e| panic!("{e}"));
}

/// A thread body past `MAX_STATEMENTS` statements — counting those in
/// nested blocks — is a span-carrying parse error pointing at the first
/// statement over the cap, never a stack overflow in the passes that
/// walk its `Seq` chain.
#[test]
fn overlong_thread_bodies_are_rejected_not_a_stack_overflow() {
    use rc11_lang::parse::MAX_STATEMENTS;
    let cap = MAX_STATEMENTS as usize;
    for n in [cap + 1, 50_000] {
        let e = err(&with_body(&"r = 1;\n".repeat(n)));
        assert!(e.msg.contains(&format!("more than {MAX_STATEMENTS} statements")), "{}", e.msg);
        assert_eq!(e.span.line as usize, 4 + cap, "the error points at the first excess statement");
    }
    // Statements in nested blocks count towards the same cap.
    let block = format!("if (true) {{ {} }}\n", "r = 1; ".repeat(99));
    let e = err(&with_body(&block.repeat(cap / 100 + 1)));
    assert!(e.msg.contains("statements"), "{}", e.msg);
}

/// Up to the cap nothing changes.
#[test]
fn thread_bodies_up_to_the_statement_cap_still_parse() {
    use rc11_lang::parse::MAX_STATEMENTS;
    let src = with_body(&"r = 1;\n".repeat(MAX_STATEMENTS as usize));
    parse_litmus(&src).unwrap_or_else(|e| panic!("{e}"));
}
