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
  | Mem of expr

type stmt =
  | Decl of string * expr
  | Assign of string * expr
  | Store of expr * expr
  | If of expr * block * block option
  | While of expr * block
  | Expr of expr
  | Return of expr option

and block = stmt list

type func = { name : string; params : string list; body : block }
type program = func list
