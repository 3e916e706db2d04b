type span = Amsvp_diag.Diag.span

type unop = Neg | Not

type binop = Add | Sub | Mul | Div | Lt | Le | Gt | Ge | And | Or

type expr = { edesc : expr_desc; espan : span }

and expr_desc =
  | Number of float
  | Ident of string
  | Access of string * string list
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Call of string * expr list
  | Ternary of expr * expr * expr

type stmt = { sdesc : stmt_desc; sspan : span }

and stmt_desc =
  | Contribution of expr * expr
  | Assign of string * expr
  | If of expr * stmt list * stmt list

type direction = Inout | Input | Output

type item = { idesc : item_desc; ispan : span }

and item_desc =
  | Port_direction of direction * string list
  | Net_decl of string * string list
  | Ground_decl of string list
  | Branch_decl of (string * string) * string list
  | Parameter of { name : string; default : expr option; local : bool }
  | Analog of stmt list
  | Instance of {
      module_name : string;
      instance_name : string;
      overrides : (string * span * expr) list;
      connections : (string * string) list;
    }

type module_def = {
  name : string;
  ports : string list;
  items : item list;
  mspan : span;
}

type design = module_def list

let find_module design name =
  List.find_opt (fun m -> m.name = name) design

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let rec pp_expr ppf e =
  match e.edesc with
  | Number f -> Format.fprintf ppf "%g" f
  | Ident s -> Format.pp_print_string ppf s
  | Access (f, args) -> Format.fprintf ppf "%s(%s)" f (String.concat "," args)
  | Unop (Neg, e) -> Format.fprintf ppf "-(%a)" pp_expr e
  | Unop (Not, e) -> Format.fprintf ppf "!(%a)" pp_expr e
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_expr)
        args
  | Ternary (c, a, b) ->
      Format.fprintf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b
