(** Superblock fusion: the chains of adjacent single-use instructions
    that [Compile]'s hot path lowers to fused kernels. A chain no
    kernel covers runs one closure per member. *)

(** An instruction's kind as a chain member (["fbinop"], ["load"],
    ...); [None] if it is never a member. *)
val member_kind : Code.cinstr -> string option

(** [chain_length uses body k] is the member count of the maximal chain
    starting at [body.(k)], 1 when it links to nothing. [uses] holds
    the function's whole-function register use counts. *)
val chain_length : int array -> Code.cinstr array -> int -> int

(** [thread_superblock body_tx body s len] lowers the chain of [len]
    members at [body.(s)] into fused kernels, keeping the ordinary
    closure ([body_tx]) of every member no kernel covers; [None] when
    no kernel applies. Fuel, dynamic counts and trap points equal the
    members' own. *)
val thread_superblock :
  Code.texec array -> Code.cinstr array -> int -> int -> Code.texec option
