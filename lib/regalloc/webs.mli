(** Live-range renaming — Chaitin's "renumber" phase.

    A web is a maximal set of definitions and uses of one source
    register connected through def-use chains: two definitions belong
    together when some use is reached by both.  Each web becomes a fresh
    virtual register, the unit of allocation.

    Physical registers are never renamed. *)

type t = {
  func : Cfg.func;  (** body rewritten with one register per web *)
  origin : Reg.t Reg.Tbl.t;
      (** web register -> the source register it renames *)
}

val run : Cfg.func -> t
(** Webs of any body without phi instructions, from reaching
    definitions.  @raise Invalid_argument on a phi. *)

val rename : Cfg.func -> t
(** {!run}'s result in one linear pass with no dataflow, for a body in
    which every virtual register with a definition is already one web
    whose every use some definition reaches.  That holds for {!run}'s
    output after any number of {!Spill_insert.insert} calls: spill code
    removes a spilled register's every definition and use, adds
    temporaries each defined once and used only by the instruction
    beside it, and leaves every other register's definitions and the
    uses they reach where they were (a copy from a spilled source
    becomes a reload of the same destination at the same place).  So
    {!run} would keep the partition and only rename: each defined
    register gets a fresh name, in the order {!run} hands them out, and
    a register with no definition keeps its own.  On any other body the
    result is not {!run}'s. *)
