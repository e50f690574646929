(** The per-occurrence rule checks, as a visitor over typed trees.

    One [t] accumulates findings across any number of compilation units;
    {!findings} returns them sorted by location.  [force_lib] makes the
    library-only rules (R5/R6/R7) apply to every file regardless of
    path — used by the fixture tests, whose sources live under
    [test/]. *)

type t

val create : ?force_lib:bool -> unit -> t

val check_structure : t -> Typedtree.structure -> unit

val check_interface : t -> modname:string -> Typedtree.signature -> unit
(** R12: record the values a library interface declares (nested
    [module M : sig ... end] included), keyed by the compilation unit
    [modname] ([Cache__Memo]), so same-named modules of different
    libraries never share a key.  Interfaces outside [lib/] are skipped
    unless [force_lib]. *)

val has_exports : t -> bool

val scan_references : t -> Typedtree.structure -> unit
(** R12: record every value path a referrer unit mentions.  A module
    used as a whole (functor argument, [include], first-class) counts as
    a reference to each of its values. *)

val findings : t -> Finding.t list
(** Every finding so far, R12 included: an export that no scanned
    referrer mentions, located at its [val] in the interface. *)

val first_arrow_arg : Types.type_expr -> Types.type_expr option

val poly_compare_op : string -> bool
(** Is this [Path.name] one of [Stdlib.(=)]/[(<>)]/[compare]? *)

val mutable_state_maker : string -> bool
(** The allocator names R6 watches ([ref], [Hashtbl.create], ...); the
    lock-discipline pass reuses them to spot guarded globals. *)
