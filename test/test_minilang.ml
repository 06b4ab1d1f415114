(* Mini-language frontend tests: lexing, parsing, compilation and
   end-to-end execution through the allocator. *)

open Helpers

let run_src ?(args = []) src =
  let p = Mini_compile.compile_source src in
  (Interp.run ~args p).Interp.value

let expect_int src expected =
  match run_src src with
  | Some (Interp.Int n) -> check Alcotest.int src expected n
  | _ -> Alcotest.failf "%s: expected an integer result" src

(* Lexer ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Mini_lexer.tokenize "fn f(x) { return x <= 10; } // c" in
  check Alcotest.int "token count" 13 (List.length toks);
  check Alcotest.bool "ends with eof" true
    (List.nth toks 12 = Mini_lexer.EOF)

let test_lexer_numbers () =
  (match Mini_lexer.tokenize "42 3.5" with
  | [ Mini_lexer.INT 42; Mini_lexer.FLOAT f; Mini_lexer.EOF ] ->
      check (Alcotest.float 1e-9) "float" 3.5 f
  | _ -> Alcotest.fail "numbers");
  Alcotest.check_raises "bad float" (Mini_lexer.Error "line 1: digits expected after decimal point")
    (fun () -> ignore (Mini_lexer.tokenize "3."))

let test_lexer_operators () =
  match Mini_lexer.tokenize "== != <= >= && || = < >" with
  | [
   Mini_lexer.EQ; Mini_lexer.NE; Mini_lexer.LE; Mini_lexer.GE;
   Mini_lexer.ANDAND; Mini_lexer.OROR; Mini_lexer.ASSIGN; Mini_lexer.LT;
   Mini_lexer.GT; Mini_lexer.EOF;
  ] ->
      ()
  | _ -> Alcotest.fail "operators"

let test_lexer_error_line () =
  Alcotest.check_raises "line number"
    (Mini_lexer.Error "line 2: unexpected character '#'") (fun () ->
      ignore (Mini_lexer.tokenize "fn f() {\n#"))

(* Parser ----------------------------------------------------------------- *)

let test_parser_precedence () =
  (* 2 + 3 * 4 = 14, (2 + 3) * 4 = 20 *)
  expect_int "fn main() { return 2 + 3 * 4; }" 14;
  expect_int "fn main() { return (2 + 3) * 4; }" 20;
  expect_int "fn main() { return 10 - 2 - 3; }" 5 (* left assoc *)

let test_parser_comparison_and_logic () =
  expect_int "fn main() { return 1 < 2 && 3 < 4; }" 1;
  expect_int "fn main() { return 1 < 2 && 4 < 3; }" 0;
  expect_int "fn main() { return 1 > 2 || 3 >= 3; }" 1

let test_parser_rejects () =
  let bad = [
    "fn main() { return 1 }"; (* missing ; *)
    "fn main() { var = 3; }";
    "fn main( { return 0; }";
    "main() { return 0; }";
  ]
  in
  List.iter
    (fun src ->
      check Alcotest.bool src true
        (try
           ignore (Mini_parser.parse src);
           false
         with Mini_parser.Error _ -> true))
    bad

(* Compiler semantics ------------------------------------------------------ *)

let test_variables_and_assignment () =
  expect_int "fn main() { var x = 3; x = x + 4; return x; }" 7

let test_if_else () =
  expect_int "fn main() { var x = 1; if (x < 5) { x = 10; } else { x = 20; } return x; }" 10;
  expect_int "fn main() { var x = 9; if (x < 5) { x = 10; } else { x = 20; } return x; }" 20;
  expect_int "fn main() { var x = 0; if (1) { x = 5; } return x; }" 5

let test_while_loop () =
  expect_int "fn main() { var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }" 45

let test_nested_loops () =
  expect_int
    "fn main() { var s = 0; var i = 0; while (i < 4) { var j = 0; while (j < 3) { s = s + 1; j = j + 1; } i = i + 1; } return s; }"
    12

let test_functions_and_recursion () =
  expect_int "fn sq(x) { return x * x; } fn main() { return sq(7); }" 49;
  expect_int
    "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn main() { return fib(10); }"
    55

let test_memory_ops () =
  expect_int "fn main() { mem[128] = 11; mem[136] = 31; return mem[128] + mem[136]; }" 42

let test_floats () =
  expect_int "fn main() { var x = 2.5; var y = 4.0; return x * y; }" 10;
  (* int/float coercion in mixed arithmetic *)
  expect_int "fn main() { return 3 + 1.5 + 1.5; }" 6

let test_early_return_and_dead_code () =
  expect_int "fn main() { return 1; return 2; }" 1;
  expect_int "fn main() { if (1) { return 5; } else { return 6; } }" 5

let test_fallthrough_returns_zero () =
  expect_int "fn main() { var x = 3; }" 0

let test_compile_errors () =
  let bad = [
    "fn main() { return y; }";
    "fn main() { y = 3; return 0; }";
    "fn main() { var x = 1; var x = 2; return x; }";
    "fn main() { return f(3); }";
    "fn f(a, b) { return a; } fn main() { return f(1); }";
    "fn f() { return 0; }"; (* no main *)
    "fn main(x) { return x; }"; (* main with params *)
    "fn main() { return 0; } fn main() { return 1; }";
  ]
  in
  List.iter
    (fun src ->
      check Alcotest.bool src true
        (try
           ignore (Mini_compile.compile_source src);
           false
         with Mini_compile.Error _ -> true))
    bad

(* End to end through the allocator ---------------------------------------- *)

let fib_src =
  "fn fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } fn main() { return fib(12); }"

let test_allocated_recursion () =
  (* Recursion is the acid test for callee/caller saves: the allocated
     code shares one physical register file across all activations. *)
  let p = Mini_compile.compile_source fib_src in
  let m = Machine.make ~k:8 () in
  let prepared = Pipeline.prepare m p in
  let before = Interp.run prepared in
  List.iter
    (fun algo ->
      let a = Pipeline.allocate_program algo m prepared in
      let after = Interp.run ~machine:m a.Pipeline.program in
      check Alcotest.bool (algo.Allocator.name ^ " fib(12) = 144") true
        (Interp.equal_value after.Interp.value (Some (Interp.Int 144)));
      check Alcotest.bool (algo.Allocator.name ^ " matches virtual") true
        (Interp.equal_value before.Interp.value after.Interp.value))
    paper_algos

let test_minilang_through_every_pressure () =
  let p = Mini_compile.compile_source fib_src in
  List.iter
    (fun m ->
      let prepared = Pipeline.prepare m p in
      let a = Pipeline.allocate_program Pipeline.pdgc_full m prepared in
      let after = Interp.run ~machine:m a.Pipeline.program in
      check Alcotest.bool (Printf.sprintf "k=%d" m.Machine.k) true
        (Interp.equal_value after.Interp.value (Some (Interp.Int 144))))
    [ Machine.make ~k:16 (); Machine.middle_pressure; Machine.make ~k:32 () ]

let () =
  Alcotest.run "minilang"
    [
      ( "lexer",
        [
          tc "tokens" test_lexer_tokens;
          tc "numbers" test_lexer_numbers;
          tc "operators" test_lexer_operators;
          tc "error lines" test_lexer_error_line;
        ] );
      ( "parser",
        [
          tc "precedence" test_parser_precedence;
          tc "comparisons and logic" test_parser_comparison_and_logic;
          tc "syntax errors" test_parser_rejects;
        ] );
      ( "semantics",
        [
          tc "variables" test_variables_and_assignment;
          tc "if/else" test_if_else;
          tc "while" test_while_loop;
          tc "nested loops" test_nested_loops;
          tc "functions and recursion" test_functions_and_recursion;
          tc "memory" test_memory_ops;
          tc "floats" test_floats;
          tc "early return" test_early_return_and_dead_code;
          tc "fallthrough" test_fallthrough_returns_zero;
          tc "compile errors" test_compile_errors;
        ] );
      ( "end-to-end",
        [
          tc "allocated recursion (all allocators)" test_allocated_recursion;
          tc "all pressure models" test_minilang_through_every_pressure;
        ] );
    ]
