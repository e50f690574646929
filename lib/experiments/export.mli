(** TSV data export for re-plotting the figures.

    [all ~dir] writes one tab-separated file per figure into [dir]
    (created if missing): fig1.tsv, fig2.tsv, fig3.tsv, fig4.tsv —
    using the same memoized runs as the printed experiments. *)

val all : dir:string -> string list
(** The written paths, in figure order. *)
