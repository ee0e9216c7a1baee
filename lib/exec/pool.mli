(** Work-stealing pool of OCaml 5 domains.

    Built for coarse-grained jobs (whole experiment cells, milliseconds
    to seconds each): every worker owns a deque of tasks and steals from
    its peers once its own runs dry, so an uneven batch still keeps all
    domains busy. No dependency beyond the standard library.

    A pool with [jobs <= 1] spawns no domains at all and runs every
    batch inline, in submission order — the exact serial semantics the
    deterministic experiment tables are specified against. *)

type t

val create : jobs:int -> t
(** [create ~jobs] starts [jobs - 1] worker domains (the submitting
    domain acts as the remaining worker while it waits). [jobs <= 1]
    creates an inline pool with no domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val size : t -> int
(** Parallelism the pool was created with (>= 1). *)

val run_all :
  ?on_result:(int -> unit) -> t -> (unit -> 'a) array -> ('a, exn) result array
(** Run a batch, blocking until every task has finished. Result [i]
    belongs to task [i] whatever order the tasks actually ran in. A
    task's exception is captured in its own slot; it neither kills the
    worker nor poisons the rest of the batch, and the pool stays usable
    for further batches. Raises [Invalid_argument] after {!shutdown}.

    [on_result i] fires on the domain that ran task [i], right after its
    slot is written — the engine's incremental-persistence hook (journal
    append), so a kill mid-batch loses only unfinished
    cells. The callback must be thread-safe; exceptions it raises are
    swallowed (a raising hook would kill its worker domain). *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Any batch submitted after
    shutdown raises. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] and shuts the pool down afterwards,
    also on exception. *)
