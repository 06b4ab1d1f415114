(** Abstract syntax of the mini language — a small imperative frontend
    used to demonstrate the allocator as a compiler backend.

    Programs are lists of functions; [main] (no parameters) is the
    entry point.  Variables are mutable and block-scoped; the only
    types are int and float (inferred from literals and operations);
    [mem[e]] reads and writes a flat word-addressed heap, which is how
    paired-load opportunities arise. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * expr list
  | Mem of expr  (** [mem[e]]: heap read at byte address [e] *)

type stmt =
  | Decl of string * expr  (** [var x = e;] *)
  | Assign of string * expr  (** [x = e;] *)
  | Store of expr * expr  (** [mem[e1] = e2;] *)
  | If of expr * block * block option
  | While of expr * block
  | Expr of expr  (** expression statement (e.g. a call) *)
  | Return of expr option

and block = stmt list

type func = { name : string; params : string list; body : block }
type program = func list
