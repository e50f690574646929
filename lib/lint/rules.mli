(** The per-occurrence rule checks, as a visitor over typed trees.

    One [t] accumulates findings across any number of compilation units;
    {!findings} returns them sorted by location.  [force_lib] makes the
    library-only rules (R5/R6/R7) apply to every file regardless of
    path — used by the fixture tests, whose sources live under
    [test/]. *)

type t

val create : ?force_lib:bool -> unit -> t

val check_structure : t -> Typedtree.structure -> unit

val findings : t -> Finding.t list

val mentions_float : int -> Types.type_expr -> bool
(** [mentions_float depth ty]: structural float-containment test used by
    R1 (float itself, and float under tuples/list/array/option/ref).
    Exposed for tests and for the interprocedural passes. *)

val first_arrow_arg : Types.type_expr -> Types.type_expr option

val poly_compare_op : string -> bool
(** Is this [Path.name] one of [Stdlib.(=)]/[(<>)]/[compare]? *)

val mutable_state_maker : string -> bool
(** The allocator names R6 watches ([ref], [Hashtbl.create], ...); the
    lock-discipline pass reuses them to spot guarded globals. *)
