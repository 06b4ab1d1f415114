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

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.pp_print_float ppf f
  | Var x -> Format.pp_print_string ppf x
  | Bin (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Neg e -> Format.fprintf ppf "-%a" pp_expr e
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           pp_expr)
        args
  | Mem e -> Format.fprintf ppf "mem[%a]" pp_expr e

let pp_stmt ppf = function
  | Decl (x, e) -> Format.fprintf ppf "var %s = %a;" x pp_expr e
  | Assign (x, e) -> Format.fprintf ppf "%s = %a;" x pp_expr e
  | Store (a, e) -> Format.fprintf ppf "mem[%a] = %a;" pp_expr a pp_expr e
  | If (c, _, _) -> Format.fprintf ppf "if (%a) {...}" pp_expr c
  | While (c, _) -> Format.fprintf ppf "while (%a) {...}" pp_expr c
  | Expr e -> Format.fprintf ppf "%a;" pp_expr e
  | Return None -> Format.pp_print_string ppf "return;"
  | Return (Some e) -> Format.fprintf ppf "return %a;" pp_expr e
