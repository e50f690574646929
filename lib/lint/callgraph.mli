(** Whole-program call graph over the typed trees of every compilation
    unit the driver reads: defs (toplevel and nested-module value
    bindings), call edges with the instantiated occurrence type's float /
    type-variable content, and direct R2/R7 nondeterminism sources per
    def.  [Taint] consumes it for the interprocedural passes. *)

module SM : Map.S with type key = string

type loc = { l_file : string; l_line : int; l_col : int }

type flags = { at_float : bool; at_tvar : bool }

type call = {
  callee : string;         (** normalized "Module.name" key *)
  caller : string option;  (** enclosing def key; [None] at module toplevel *)
  caller_mod : string;
  site : loc;
  inst : flags;            (** what the occurrence's instantiated type mentions *)
}

type source = { s_rule : Finding.rule; s_loc : loc; s_name : string }

type def = {
  d_key : string;
  d_mod : string;
  d_loc : loc;
  mutable d_compare : loc option;
      (** location of a polymorphic compare at a type-variable type, if
          the def contains one — the seed of interprocedural R1 *)
  mutable d_sources : source list;
      (** direct [Random]/[Hashtbl.iter] occurrences inside the def *)
}

type t

val create : unit -> t

val scan : t -> modname:string -> Typedtree.structure -> unit
(** Add one compilation unit.  [modname] is the unit's normalized module
    name (e.g. ["Memo"] for [Cache__Memo]). *)

val defs : t -> def SM.t

val calls : t -> call list
(** In scan order; callers sort findings, so order is not semantic. *)

val normalize : string -> string
(** Normalize a [Path.name]: strip dune's ["Lib__Mod"] wrapping and keep
    the last two components, so [Cache__Memo.find], [Cache.Memo.find]
    and a local [find] in unit [Memo] all key as ["Memo.find"]. *)

val builtin_carrier : string -> bool
(** Stdlib generics that compare their arguments internally
    ([List.mem], [List.assoc], ..., [Array.mem]): always carriers. *)
